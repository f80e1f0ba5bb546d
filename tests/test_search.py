"""Tests for the constrained maximizer, its oracle, and the depth study."""

import hashlib
import json
import math
import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bklab import search
from bklab.dyadic import StepFunction, TreeSpec, maximal_function
from bklab.errors import (
    ComplexityGuardError,
    ConvergenceError,
    DomainError,
    InfeasibleStartError,
)
from bklab.kernel import BellmanParams
from bklab.search import (
    STUDY_CSV_HEADER,
    SearchReport,
    _floor_fixed,
    _headroom,
    _objective,
    _seed_values,
    _three_cell_targets,
    brute_force_oracle,
    convergence_study,
    leaf_maximal,
    leaf_objective,
    local_search,
    project_to_moments,
    study_to_csv,
)
from bklab.transforms import objective

PARAMS = BellmanParams(q=0.5, f=1.0, h=0.8, L=1.2)


def leaf_array(phi, spec):
    return np.array([float(v) for v in phi.leaf_values(spec)])


class TestLeafMaximal:
    def test_matches_tree_evaluator(self):
        rng = random.Random(11)
        for m, depth in ((2, 4), (3, 3), (2, 1)):
            spec = TreeSpec(m, depth)
            n = spec.n_leaves
            for _ in range(8):
                vals = [rng.random() * 3.0 for _ in range(n)]
                if rng.random() < 0.5:
                    for i in range(n):
                        if rng.random() < 0.3:
                            vals[i] = 0.0
                phi = StepFunction.from_leaf_values(vals, spec)
                want = [float(v) for v in maximal_function(phi, spec).leaf_values(spec)]
                got = leaf_maximal(np.array(vals), m, depth)
                assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_batch_rows_match_single_calls(self):
        # blocks of 8 or more cells take numpy's pairwise summation; the
        # batched search relies on every row being reduced as if alone
        rng = np.random.default_rng(3)
        for m, depth in ((2, 3), (2, 8), (3, 5), (4, 4)):
            for size in (2, 5, 6, 64):
                batch = rng.random((size, m**depth)) * 2.0
                batch[rng.random(batch.shape) < 0.2] = 0.0
                got = leaf_maximal(batch, m, depth)
                assert got.shape == batch.shape
                for row in range(size):
                    single = leaf_maximal(batch[row], m, depth)
                    assert np.array_equal(got[row], single), (m, depth, size, row)

    def test_leaf_level_matches_per_level_loop(self):
        # leaf_maximal takes its deepest level, one leaf per block, as the
        # leaves themselves; here every level is summed and divided, and
        # the bits must agree, signed zeros included
        rng = np.random.default_rng(5)
        for m, depth in ((2, 1), (2, 6), (3, 4), (4, 3)):
            n = m**depth
            for shape in ((n,), (3, n), (8, n)):
                v = rng.random(shape) * 2.0
                v[rng.random(shape) < 0.3] = 0.0
                v[rng.random(shape) < 0.1] = -0.0
                v[..., :m] = 0.0
                if len(shape) == 2:
                    v[0] = 0.0
                    v[1] = -0.0
                want = np.full(shape, -np.inf)
                for d in range(depth + 1):
                    blocks = shape[:-1] + (m**d, m ** (depth - d))
                    avg = np.add.reduce(v.reshape(blocks), axis=-1) / blocks[-1]
                    view = want.reshape(blocks)
                    np.maximum(view, avg[..., None], out=view)
                got = leaf_maximal(v, m, depth)
                assert np.array_equal(got.view(np.int64), want.view(np.int64)), (m, depth, shape)

    def test_constant_input(self):
        out = leaf_maximal(np.full(8, 1.75), 2, 3)
        assert np.array_equal(out, np.full(8, 1.75))

    def test_wrong_length(self):
        with pytest.raises(DomainError):
            leaf_maximal(np.ones(7), 2, 3)


class TestLeafObjective:
    def test_matches_step_function_objective(self):
        rng = random.Random(7)
        spec = TreeSpec(2, 4)
        for _ in range(10):
            vals = [rng.random() * 2.5 for _ in range(spec.n_leaves)]
            phi = StepFunction.from_leaf_values(vals, spec)
            want = objective(phi, 1.2, 0.5, spec)
            got = float(leaf_objective(np.array(vals), 1.2, 0.5, 2, 4))
            assert got == pytest.approx(want, rel=1e-12)

    def test_floor_dominates_small_functions(self):
        vals = np.full(8, 0.1)
        got = float(leaf_objective(vals, 2.0, 0.5, 2, 3))
        assert got == pytest.approx(2.0**0.5, rel=1e-15)


class TestProjectToMoments:
    def test_hits_both_moments(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            n = 32
            v = rng.random(n) * 4.0
            v[rng.random(n) < 0.3] = 0.0
            if (v > 0).sum() < 26:
                continue
            out = project_to_moments(v, 1.0, 0.8, 0.5)
            assert abs(out.mean() - 1.0) < 1e-10
            assert abs((out**0.5).mean() - 0.8) < 1e-10
            assert np.all(out[v == 0.0] == 0.0)
            assert np.all(out[v > 0.0] > 0.0)

    def test_other_parameters(self):
        rng = np.random.default_rng(23)
        v = rng.random(27) * 2.0 + 0.05
        out = project_to_moments(v, 2.5, 1.1, 0.3)
        assert abs(out.mean() - 2.5) < 1e-10
        assert abs((out**0.3).mean() - 1.1) < 1e-10

    def test_hoelder_equality_returns_constant(self):
        v = np.array([0.5, 2.0, 1.0, 3.0])
        out = project_to_moments(v, 2.0, 2.0**0.5, 0.5)
        assert np.array_equal(out, np.full(4, 2.0))

    def test_q_mass_above_cap_rejected(self):
        with pytest.raises(DomainError):
            project_to_moments(np.ones(4), 1.0, 1.5, 0.5)

    def test_support_too_thin(self):
        v = np.zeros(8)
        v[0] = 1.0
        # one positive cell caps the q-mass at f^q (1/8)^(1-q) = 0.3536
        with pytest.raises(InfeasibleStartError):
            project_to_moments(v, 1.0, 0.8, 0.5)

    def test_constant_positives_at_cap(self):
        v = np.array([3.0, 3.0, 3.0, 3.0, 0.0, 0.0, 0.0, 0.0])
        # back off the cap by an ulp so log rounding cannot flip the sign
        cap = (4.0 / 8.0) ** 0.5 * (1.0 - 1e-13)
        out = project_to_moments(v, 1.0, cap, 0.5)
        assert np.array_equal(out[:4], np.full(4, 2.0))
        assert np.array_equal(out[4:], np.zeros(4))
        with pytest.raises(InfeasibleStartError):
            project_to_moments(v, 1.0, cap - 0.1, 0.5)

    def test_zero_function_rejected(self):
        with pytest.raises(InfeasibleStartError):
            project_to_moments(np.zeros(8), 1.0, 0.8, 0.5)

    def test_validation(self):
        with pytest.raises(DomainError):
            project_to_moments(np.ones((2, 2)), 1.0, 0.8, 0.5)
        with pytest.raises(DomainError):
            project_to_moments(np.array([1.0, -0.5]), 1.0, 0.8, 0.5)
        with pytest.raises(DomainError):
            project_to_moments(np.ones(4), 0.0, 0.8, 0.5)
        with pytest.raises(DomainError):
            project_to_moments(np.ones(4), 1.0, 0.8, 1.5)


class TestThreeCellTargets:
    def test_conserves_both_sums(self):
        rng = random.Random(31)
        hits = 0
        for _ in range(300):
            q = rng.uniform(0.1, 0.9)
            vi, vj, vk = (rng.random() * 3.0 for _ in range(3))
            t = rng.random() * 3.0
            sol = _three_cell_targets(vi, vj, vk, t, q)
            if sol is None:
                continue
            hits += 1
            a, b = sol
            assert a >= -1e-15 and b >= -1e-15
            s1 = vi + vj + vk - t
            s2 = vi**q + vj**q + vk**q - t**q
            assert a + b == pytest.approx(s1, abs=1e-12)
            assert a**q + b**q == pytest.approx(s2, abs=1e-7)
        assert hits > 50

    def test_mass_overdraw_is_rejected(self):
        assert _three_cell_targets(1.0, 0.5, 0.5, 5.0, 0.5) is None

    def test_concentrated_q_mass_is_rejected(self):
        # s1 = 3, s2 = 3 > 2^(1-q) 3^q = 2.449: no pair can carry it
        assert _three_cell_targets(1.0, 1.0, 1.0, 0.0, 0.5) is None

    def test_boundary_collapses_to_one_cell(self):
        # t takes all the q-mass surplus: remaining pair must be (0, s1)
        q = 0.5
        s1 = 2.0
        t = 1.0
        vi = t
        # choose vj, vk with vj + vk = s1 and vj^q + vk^q = s1^q exactly
        sol = _three_cell_targets(vi, 0.0, s1, t, q)
        assert sol is not None
        a, b = sol
        assert a == 0.0 and b == pytest.approx(s1, abs=1e-12)


class TestSearchReport:
    def test_gap_fraction_and_json(self):
        spec = TreeSpec(2, 3)
        rep = local_search(PARAMS, spec, seed=2, budget=800, restarts=4)
        assert rep.gap_fraction == pytest.approx(rep.gap / rep.analytic_bound)
        obj = rep.to_json_obj()
        text = json.dumps(obj, sort_keys=True)
        back = json.loads(text)
        assert back["m"] == 2 and back["depth"] == 3
        assert back["params"]["q"] == 0.5
        assert back["objective"] == rep.objective
        phi, m = StepFunction.from_json_obj(back["best_phi"])
        assert m == 2
        assert leaf_array(phi, spec) == pytest.approx(
            list(leaf_array(rep.best_phi, spec)), abs=0
        )


class TestLocalSearch:
    def test_deterministic_for_fixed_seed(self):
        spec = TreeSpec(2, 4)
        a = local_search(PARAMS, spec, seed=9, budget=1200, restarts=5)
        b = local_search(PARAMS, spec, seed=9, budget=1200, restarts=5)
        assert a.objective == b.objective
        assert a.best_restart == b.best_restart
        assert a.iterations == b.iterations
        assert np.array_equal(leaf_array(a.best_phi, spec), leaf_array(b.best_phi, spec))

    def test_bound_and_moments(self):
        for spec in (TreeSpec(2, 4), TreeSpec(3, 2)):
            rep = local_search(PARAMS, spec, seed=1, budget=1500, restarts=6)
            assert rep.objective <= rep.analytic_bound + 1e-9
            assert rep.gap == pytest.approx(rep.analytic_bound - rep.objective)
            vals = leaf_array(rep.best_phi, spec)
            assert abs(vals.mean() - PARAMS.f) < 1e-9
            assert abs((vals**PARAMS.q).mean() - PARAMS.h) < 1e-9
            assert rep.residual >= 0.0

    def test_hoelder_equality_forces_constant(self):
        p = BellmanParams(q=0.5, f=1.0, h=1.0, L=1.2)
        spec = TreeSpec(2, 4)
        rep = local_search(p, spec, seed=0, budget=500, restarts=3)
        vals = leaf_array(rep.best_phi, spec)
        assert np.array_equal(vals, np.full(spec.n_leaves, 1.0))
        # the constant f is the only admissible shape, so the analytic
        # value collapses to max(L, f)^q and the gap closes
        assert rep.objective == pytest.approx(1.2**0.5, rel=1e-12)
        assert abs(rep.gap) < 1e-9

    def test_two_cells_match_oracle(self):
        spec = TreeSpec(2, 1)
        rep = local_search(PARAMS, spec, seed=0, budget=50, restarts=2)
        ora = brute_force_oracle(PARAMS, spec)
        assert rep.objective == pytest.approx(ora.objective, abs=1e-6)

    def test_seed_stability(self):
        spec = TreeSpec(2, 4)
        gaps = []
        for seed in (0, 1):
            rep = local_search(PARAMS, spec, seed=seed, budget=1500, restarts=6)
            assert rep.gap > 0.0
            gaps.append(rep.gap)
        assert max(gaps) <= 2.0 * min(gaps)

    def test_extra_seed_floor(self):
        spec = TreeSpec(2, 2)
        ora = brute_force_oracle(PARAMS, spec, grid=10)
        start = leaf_array(ora.best_phi, spec)
        rep = local_search(PARAMS, spec, seed=0, budget=400, restarts=2,
                           extra_seeds=[start])
        assert rep.restarts == 3
        assert rep.objective >= ora.objective - 1e-9

    # float.hex of (objective, residual) for seeds 0, 1, 2 at depth 8,
    # budget 300, 2 restarts; batching or reordering the scoring must not
    # move a single bit of the trajectory
    PINNED = {
        0: ("0x1.730ecbfdda4b5p+0", "0x1.c85a0b5071d6dp-1"),
        1: ("0x1.74fe5defef423p+0", "0x1.325e2b0251146p-1"),
        2: ("0x1.735cd2c8840c5p+0", "0x1.e1fe87d14f130p-1"),
    }

    @pytest.mark.parametrize("seed", sorted(PINNED))
    def test_fixed_seed_results_are_pinned(self, seed):
        rep = local_search(PARAMS, TreeSpec(2, 8), seed=seed, budget=300, restarts=2)
        assert (rep.objective.hex(), rep.residual.hex()) == self.PINNED[seed]

    # (m, depth, budget, restarts) -> float.hex of objective and residual,
    # best_restart, iterations and the SHA-256 of the winning leaf array,
    # all at seed 0.  Budgets 1, 7, 8, 9 straddle the first window of
    # speculatively scored proposals; the other trees cover m = 3, 4 and
    # a deeper binary tree.
    TRAJECTORIES = {
        (2, 8, 1, 2): ("0x1.73123fe6b76d0p+0", "0x1.dfd3f9753d420p-1", 1, 2,
                       "fb0b58cd7512c7b2937ead5fe07df21c07caf47a065dad9f6f2d6cae9fe58684"),
        (2, 8, 7, 2): ("0x1.73123fe6b76d0p+0", "0x1.dfd3f9753d420p-1", 1, 14,
                       "fb0b58cd7512c7b2937ead5fe07df21c07caf47a065dad9f6f2d6cae9fe58684"),
        (2, 8, 8, 2): ("0x1.73123fe6b76d0p+0", "0x1.dfd3f9753d420p-1", 1, 16,
                       "fb0b58cd7512c7b2937ead5fe07df21c07caf47a065dad9f6f2d6cae9fe58684"),
        (2, 8, 9, 2): ("0x1.73136fd239f15p+0", "0x1.df6f9349ff160p-1", 1, 18,
                       "def78df392117b3c0f207adf52d46ba22a33e876f4bd4773a0093a4940385806"),
        (2, 8, 300, 2): ("0x1.730ecbfdda4b5p+0", "0x1.c85a0b5071d6dp-1", 1, 600,
                         "b107fd81d19c77aae95a0570c7c255339ef8d2a0a1fceda343cdb88c2f90fa6e"),
        (3, 5, 500, 3): ("0x1.658dfbd8d011ap+0", "0x1.b709b9e0027cep-1", 0, 1500,
                         "b33c96a476bb3b7448c2d7ca6be3cdec2295e804d915cf015c9edf958383a367"),
        (4, 4, 500, 3): ("0x1.61f819ce3be7ep+0", "0x1.b13c9ac2417d8p-1", 0, 1500,
                         "59fc0b4ee1952393f529a75585cfe0b3c9b9057f4bb8c4028f6013ad4afbef8b"),
        (2, 10, 200, 2): ("0x1.745b72abc4a00p+0", "0x1.f0a3e1f8be612p-1", 1, 400,
                          "af2d6c3345f0de673d9e759098995427da1f2726c3af146aa68e1748991d0aca"),
    }
    # one warm-started run: depth 6, seed 3, budget 400, one built-in restart
    WARM_START = ("0x1.7295a99c379f2p+0", "0x1.7779f6f6b2321p-1", 1, 800,
                  "bd072f503ea656d3efd3ddff047cf9c25e86b42b5149b046e52c44697627b654")

    @staticmethod
    def _trajectory(rep, spec):
        digest = hashlib.sha256(leaf_array(rep.best_phi, spec).tobytes()).hexdigest()
        return (rep.objective.hex(), rep.residual.hex(), rep.best_restart,
                rep.iterations, digest)

    def test_trajectories_pinned_across_trees(self):
        for (m, depth, budget, restarts), want in self.TRAJECTORIES.items():
            spec = TreeSpec(m, depth)
            rep = local_search(PARAMS, spec, seed=0, budget=budget, restarts=restarts)
            assert self._trajectory(rep, spec) == want, (m, depth, budget)
        spec = TreeSpec(2, 6)
        coarse = np.repeat([4.0, 2.0, 1.0, 1.0, 0.5, 0.5, 0.25, 0.0], 8)
        rep = local_search(PARAMS, spec, seed=3, budget=400, restarts=1,
                           extra_seeds=[coarse])
        assert self._trajectory(rep, spec) == self.WARM_START

    def test_depth_ten_seeds_stay_finite(self):
        # the geometric seed shape once overflowed to inf at depth >= 10
        rep = local_search(PARAMS, TreeSpec(2, 10), seed=0, budget=1, restarts=3)
        vals = leaf_array(rep.best_phi, TreeSpec(2, 10))
        assert np.all(np.isfinite(vals))
        assert rep.objective <= rep.analytic_bound + 1e-9

    def test_validation(self):
        spec = TreeSpec(2, 2)
        with pytest.raises(DomainError):
            local_search(PARAMS, spec, budget=0)
        with pytest.raises(DomainError):
            local_search(PARAMS, spec, restarts=0)
        # infeasible data: 64 cells at q = 0.99 need h >= 64^(-0.01) = 0.959
        p = BellmanParams(q=0.99, f=1.0, h=0.8, L=1.2)
        with pytest.raises(DomainError, match=r"f\^q n\^\(q-1\) = 0.959"):
            local_search(p, TreeSpec(2, 6), budget=1, restarts=1)
        # the bound itself is feasible: one cell carries all the mass
        edge = BellmanParams(q=0.5, f=1.0, h=2.0**-0.5, L=1.2)
        rep = local_search(edge, TreeSpec(2, 1), budget=5, restarts=1)
        assert rep.objective <= rep.analytic_bound + 1e-9

    def test_seed_shapes_are_admissible_raw_material(self):
        spec = TreeSpec(2, 5)
        rng = random.Random(17)
        for ridx in range(12):
            vals = _seed_values(PARAMS, spec, ridx, rng)
            assert vals.shape == (spec.n_leaves,)
            assert np.all(np.isfinite(vals))
            assert np.all(vals >= 0.0)
            assert vals.max() > 0.0


@st.composite
def slack_moves(draw):
    """Leaf array, L, q and a three-cell move on cells below the floor."""
    m = draw(st.sampled_from((2, 3)))
    depth = draw(st.integers(2 if m == 2 else 1, 5))
    n = m**depth
    L = draw(st.sampled_from((0.5, 1.2, 4.0)))
    scale = draw(st.floats(0.1, 3.0)) * L
    value = st.one_of(st.floats(0.0, scale), st.sampled_from((0.0, L)))
    vals = np.array(draw(st.lists(value, min_size=n, max_size=n)))
    mx = leaf_maximal(vals, m, depth)
    slack = np.flatnonzero(mx < L).tolist()
    assume(len(slack) >= 3)
    cells = tuple(draw(st.lists(st.sampled_from(slack), min_size=3, max_size=3, unique=True)))
    step = st.one_of(st.floats(-0.5, 0.5), st.sampled_from((0.0, 1e-300)))
    new = tuple(max(0.0, float(vals[c]) + draw(step) * L) for c in cells)
    if draw(st.booleans()):
        new = new[:2] + (draw(st.sampled_from((L, math.nextafter(L, 0.0)))),)
    return vals, L, draw(st.sampled_from((0.3, 0.5))), m, depth, cells, new


class TestFloorCertificate:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(slack_moves())
    def test_certified_moves_keep_the_floor(self, case):
        vals, L, q, m, depth, cells, new = case
        obj, mx = _objective(vals, L, q, m, depth)
        if not _floor_fixed(vals, mx, _headroom(vals, L, m, depth), [(cells, new)], L):
            return
        moved = vals.copy()
        moved[list(cells)] = new
        moved_obj, moved_mx = _objective(moved, L, q, m, depth)
        assert moved_obj.hex() == obj.hex()
        assert np.array_equal(np.maximum(moved_mx, L), np.maximum(mx, L))
        assert np.array_equal(moved_mx < L, mx < L)

    def test_refuses_mass_that_fills_a_block(self):
        # cell 0's two-cell block holds 0.1 + 1.5 against a headroom of
        # 2 L - 1.6 = 0.8: raising cell 0 by 0.8 lifts the block's average
        # to L itself, which moves cell 0 out of the < L mask
        L, q = 1.2, 0.5
        vals = np.array([0.1, 1.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5])
        obj, mx = _objective(vals, L, q, 2, 3)
        room = _headroom(vals, L, 2, 3)
        for cell0, fixed in ((0.9, False), (0.85, True)):
            cells, new = (0, 2, 4), (cell0, 0.5, 0.5)
            assert _floor_fixed(vals, mx, room, [(cells, new)], L) is fixed
            moved = vals.copy()
            moved[list(cells)] = new
            moved_obj, moved_mx = _objective(moved, L, q, 2, 3)
            assert bool(moved_mx[0] < L) is fixed
            assert moved_obj == obj

    def test_refuses_a_reservoir_that_left_the_slack(self):
        # the tail picks its reservoir pairs once per sweep; after an accept
        # cell 4 (1.5 > L) is no longer below the floor, while every new
        # value is below L and the mass moved in (0.5) fits the least
        # headroom (0.9, cell 4's two-cell block)
        L, q = 1.2, 0.5
        vals = np.array([0.5, 0.5, 0.5, 0.5, 1.5, 0.0, 0.5, 0.5])
        cells, new = (0, 4, 6), (0.6, 1.0, 0.9)
        obj, mx = _objective(vals, L, q, 2, 3)
        room = _headroom(vals, L, 2, 3)
        assert room.tolist() == pytest.approx([1.4] * 4 + [0.9] * 2 + [1.4] * 2)
        assert not _floor_fixed(vals, mx, room, [(cells, new)], L)
        # the mask from the start of the sweep would have let it through,
        # and the move does lower the objective
        stale = np.where(np.arange(8) == 4, 0.9, mx)
        assert _floor_fixed(vals, stale, room, [(cells, new)], L)
        moved = vals.copy()
        moved[list(cells)] = new
        assert _objective(moved, L, q, 2, 3)[0] < obj

    def test_skipping_certified_rescoring_changes_no_bit(self, monkeypatch):
        # the certificate only decides whether the tail rescores M phi, so
        # a run that certifies nothing must match bit for bit; both runs
        # use this CPU's NumPy loops, so the pins' dispatch does not enter
        cases = ((BellmanParams(q=0.3, f=1.0, h=0.8, L=1.2), TreeSpec(2, 7)),
                 (PARAMS, TreeSpec(3, 5)))
        trajectory = TestLocalSearch._trajectory
        for params, spec in cases:
            verdicts = []

            def counted(vals, mx, room, moves, L):
                # the tail carries mx and room across accepts: the mask and
                # the headroom it hands over must be those of today's vals
                m, depth = spec.m, spec.depth
                assert np.array_equal(mx < L, leaf_maximal(vals, m, depth) < L)
                assert np.array_equal(room, _headroom(vals, L, m, depth))
                verdicts.append(_floor_fixed(vals, mx, room, moves, L))
                return verdicts[-1]

            monkeypatch.setattr(search, "_floor_fixed", counted)
            fast = local_search(params, spec, seed=0, budget=300, restarts=2)
            assert any(verdicts) and not all(verdicts), spec
            monkeypatch.setattr(search, "_floor_fixed", lambda *args: False)
            full = local_search(params, spec, seed=0, budget=300, restarts=2)
            assert trajectory(fast, spec) == trajectory(full, spec), spec


class TestBruteForceOracle:
    def test_cell_guard(self):
        with pytest.raises(ComplexityGuardError):
            brute_force_oracle(PARAMS, TreeSpec(2, 5))

    def test_grid_guards(self):
        with pytest.raises(ComplexityGuardError):
            brute_force_oracle(PARAMS, TreeSpec(2, 2), grid=13)
        with pytest.raises(DomainError):
            brute_force_oracle(PARAMS, TreeSpec(2, 2), grid=1)

    def test_pattern_count_guard(self):
        # 12 levels on 8 cells is 4.3e8 patterns, over the enumeration cap
        with pytest.raises(ComplexityGuardError):
            brute_force_oracle(PARAMS, TreeSpec(2, 3), grid=12)

    def test_two_cell_curve_is_exact(self):
        rep = brute_force_oracle(PARAMS, TreeSpec(2, 1))
        x, y = leaf_array(rep.best_phi, TreeSpec(2, 1))
        assert x + y == pytest.approx(2.0, abs=1e-12)
        assert 0.5 * (x**0.5 + y**0.5) == pytest.approx(0.8, abs=1e-10)
        want = 0.5 * (max(max(x, y), 1.2) ** 0.5 + 1.2**0.5)
        assert rep.objective == pytest.approx(want, rel=1e-12)

    def test_two_cell_floor_within_feasibility_slack(self):
        # h a hair under the two-cell floor 2^(-1/2) passes the feasibility
        # check's 1e-12 slack; the nearest function puts all mass in one cell
        p = BellmanParams(q=0.5, f=1.0, h=2.0**-0.5 * (1.0 - 5e-13), L=1.2)
        rep = brute_force_oracle(p, TreeSpec(2, 1))
        assert leaf_array(rep.best_phi, TreeSpec(2, 1)).tolist() == [2.0, 0.0]

    def test_two_cell_infeasible_band(self):
        # two cells cannot push the q-mass below f^q 2^(q-1) = 0.7071
        p = BellmanParams(q=0.5, f=1.0, h=0.6, L=1.2)
        with pytest.raises(DomainError, match=r"f\^q n\^\(q-1\) = 0.7071"):
            brute_force_oracle(p, TreeSpec(2, 1))
        with pytest.raises(DomainError, match="no function on 4 cells"):
            brute_force_oracle(BellmanParams(q=0.5, f=1.0, h=0.45, L=1.2), TreeSpec(2, 2))

    def test_hoelder_equality_trivial(self):
        p = BellmanParams(q=0.5, f=1.0, h=1.0, L=1.2)
        rep = brute_force_oracle(p, TreeSpec(2, 2))
        assert np.array_equal(leaf_array(rep.best_phi, TreeSpec(2, 2)),
                              np.full(4, 1.0))

    def test_winner_is_repaired_and_bounded(self):
        rep = brute_force_oracle(PARAMS, TreeSpec(2, 2), grid=10)
        vals = leaf_array(rep.best_phi, TreeSpec(2, 2))
        assert abs(vals.mean() - 1.0) < 1e-9
        assert abs((vals**0.5).mean() - 0.8) < 1e-9
        assert rep.objective <= rep.analytic_bound + 1e-9

    def test_search_beats_oracle_at_toy_size(self):
        spec = TreeSpec(2, 2)
        ora = brute_force_oracle(PARAMS, spec, grid=10)
        rep = local_search(PARAMS, spec, seed=0, budget=2000, restarts=6)
        assert rep.objective >= ora.objective - 1e-9


class TestConvergenceStudy:
    def test_depth_validation(self):
        with pytest.raises(DomainError):
            convergence_study(PARAMS, [])
        with pytest.raises(DomainError):
            convergence_study(PARAMS, [3, 2], budget=100, restarts=1)

    def test_gap_trend_and_csv(self):
        reports = convergence_study(PARAMS, [1, 2, 3], seed=0, budget=1200,
                                    restarts=4)
        assert [r.depth for r in reports] == [1, 2, 3]
        for prev, cur in zip(reports, reports[1:]):
            assert cur.gap <= prev.gap + 1e-9
            assert cur.objective >= prev.objective - 1e-9
        text = study_to_csv(reports)
        lines = text.strip().split("\n")
        assert lines[0] == STUDY_CSV_HEADER
        assert len(lines) == 4
        for line, rep in zip(lines[1:], reports):
            cells = line.split(",")
            assert int(cells[0]) == rep.depth
            assert float(cells[1]) == rep.objective
            assert float(cells[3]) == rep.gap
            if rep.excess_k > 0:
                assert float(cells[6]) == pytest.approx(
                    rep.excess_b / rep.excess_k, rel=1e-15
                )

    @pytest.mark.parametrize("field", ["gap", "residual"])
    @pytest.mark.parametrize("rise, raises", [(1.11, True), (1.10, False)])
    def test_rise_above_ten_percent_raises(self, monkeypatch, field, rise, raises):
        def fake_search(params, spec, **kwargs):
            values = {"gap": 1.0, "residual": 1.0}
            if spec.depth == 3:
                values[field] = rise
            return SimpleNamespace(depth=spec.depth, best_phi=StepFunction.constant(1.0),
                                   **values)

        monkeypatch.setattr(search, "local_search", fake_search)
        if raises:
            want = rf"^{field} rose from 1\.0 at depth 2 to 1\.11 at depth 3$"
            with pytest.raises(ConvergenceError, match=want):
                convergence_study(PARAMS, [2, 3])
        else:
            assert len(convergence_study(PARAMS, [2, 3])) == 2

    def test_csv_empty_excess_uses_nan(self):
        p = BellmanParams(q=0.5, f=1.0, h=1.0, L=1.2)
        rep = local_search(p, TreeSpec(2, 2), seed=0, budget=100, restarts=1)
        assert rep.excess_k == 0.0
        line = study_to_csv([rep]).strip().split("\n")[1]
        assert math.isnan(float(line.split(",")[6]))
