"""Tests for the constrained maximizer, its oracle, and the depth study."""

import hashlib
import importlib.util
import itertools
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bklab import dyadic, search, transforms
from bklab.cli import main, render_json
from bklab.dyadic import StepFunction, TreeSpec, maximal_function
from bklab.errors import (
    ComplexityGuardError,
    ConvergenceError,
    DomainError,
    InfeasibleStartError,
)
from bklab.kernel import BellmanParams
from bklab.search import (
    _ROW,
    STUDY_CSV_HEADER,
    SearchReport,
    _cells,
    _distinct,
    _levels,
    _moved_averages,
    _objective,
    _rows,
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


def same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


def compensated_sum(iterable, /, start=0):
    """sum() of ints or of floats as Python 3.12 and later compute it: exact
    on ints, and from the first float on with Neumaier's compensation."""
    items = iter(iterable)
    total = start
    for x in items:
        total = total + x
        if type(total) is float:
            break
    else:
        return total
    comp = 0.0
    for x in items:
        t = total + x
        comp += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + comp if comp and math.isfinite(comp) else total


def sibling(name):
    """The test module name.py beside this one, loaded afresh."""
    path = Path(__file__).with_name(f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def solo_greedy(params, spec, seed, budget, restarts, extra_seeds=()):
    """(restart, objective, values) of every feasible _run_restart chain,
    each scored alone, one _objective call per window."""
    m, depth, L, q = spec.m, spec.depth, params.L, params.q
    kept = []
    for ridx in range(restarts + len(extra_seeds)):
        start = extra_seeds[ridx] if ridx < len(extra_seeds) else None
        chain = search._run_restart(params, spec, ridx, seed, budget, start=start)
        try:
            window = next(chain)
            while True:
                window = chain.send(_objective(window, L, q, m, depth))
        except StopIteration as stop:
            if stop.value is not None:
                kept.append((ridx, *stop.value))
    return kept


def solo_search(params, spec, seed, budget, restarts, extra_seeds=()):
    """local_search's report from chains scored alone, every restart's
    consolidation tail run, whether or not it is in the selection band."""
    kept = solo_greedy(params, spec, seed, budget, restarts, extra_seeds)
    top_ridx, top, _ = max(kept, key=lambda row: row[1])
    tails = [(ridx, obj, *search._consolidate_tail(vals, params, spec))
             for ridx, obj, vals in kept]
    assert all(tail.hex() == obj.hex() for _, obj, tail, _, _ in tails)
    floor = top * (1.0 - search._SELECT_REL_TOL)
    ridx, _, _, _, vals = min((row for row in tails if row[1] >= floor),
                              key=lambda row: (row[3], row[0]))
    return search._finish_report(vals, params, spec, budget * len(kept), seed,
                                 restarts + len(extra_seeds), ridx, top=(top, top_ridx))


class TestLeafMaximal:
    def test_matches_tree_evaluator(self):
        # the float leaf values of dyadic.maximal_function bit for bit, on
        # signed zeros, subnormals and wide ranges, row by row and batched
        rng = random.Random(11)
        palette = (0.0, -0.0, 5e-324, 1e-300)
        # the last three batches have wide levels: their running max takes
        # the strided path there and the broadcast above, at m = 2, 3 and 4
        wide = ((2, 10), (3, 5), (4, 4))
        assert all(10 * m ** (depth - 1) >= search._STRIDED_FROM for m, depth in wide)
        for m, depth in ((2, 0), (2, 1), (2, 4), (2, 8), (3, 1), (3, 3), (4, 2), (4, 3), *wide):
            spec = TreeSpec(m, depth)
            n = spec.n_leaves
            rows, wants = [], []
            for trial in range(10):
                if trial < 2:
                    vals = [(0.0, -0.0)[trial]] * n
                else:
                    vals = [rng.choice(palette) if rng.random() < 0.3
                            else rng.random() * 10.0 ** rng.randint(-8, 8) for _ in range(n)]
                phi = StepFunction.from_leaf_values(vals, spec)
                want = np.array([float(v) for v in maximal_function(phi, spec).leaf_values(spec)])
                got = leaf_maximal(np.array(vals), m, depth)
                assert same_bits(got, want), (m, depth, trial)
                rows.append(vals)
                wants.append(want)
            batch = np.array(rows)
            want = np.array(wants)
            for shape in ((10, n), (2, 5, n)):
                got = leaf_maximal(batch.reshape(shape), m, depth)
                assert got.shape == shape
                assert same_bits(got, want.reshape(shape))
            assert leaf_maximal(np.empty((0, n)), m, depth).shape == (0, n)
            assert same_bits(batch, np.array(rows)), "the input is left as it was"

    def test_levels_match_tree_levels_at_every_level(self):
        # search._levels is dyadic._levels in NumPy: every level, every bit,
        # on nonnegative leaves with signed zeros and subnormals, and per row
        # of a batch
        rng = random.Random(12)
        palette = (0.0, -0.0, 5e-324, 2.5e-308, 1e-300)
        for m, depth in ((2, 0), (2, 1), (2, 6), (3, 1), (3, 4), (4, 1), (4, 3)):
            n = m**depth
            rows = [[(0.0, -0.0)[trial]] * n if trial < 2 else
                    [rng.choice(palette) if rng.random() < 0.4
                     else rng.random() * 10.0 ** rng.randint(-300, 300) for _ in range(n)]
                    for trial in range(8)]
            wants = [dyadic._levels(row, m) for row in rows]
            for row, want in zip(rows, wants):
                got = _levels(np.array(row), m, depth)
                assert len(got) == depth + 1
                for d in range(depth + 1):
                    assert same_bits(got[d], want[d]), (m, depth, d)
            batch = np.array(rows).reshape(2, 4, n)
            got = _levels(batch, m, depth)
            for d in range(depth + 1):
                want = np.array([w[d] for w in wants]).reshape(2, 4, -1)
                assert same_bits(got[d], want), (m, depth, d)

    def test_batch_rows_match_single_calls(self):
        # the batched search relies on every row being reduced as if alone
        rng = np.random.default_rng(3)
        for m, depth in ((2, 3), (2, 8), (2, 10), (3, 5), (4, 4)):
            for size in (2, 5, 6, 64):
                batch = rng.random((size, m**depth)) * 2.0
                batch[rng.random(batch.shape) < 0.2] = 0.0
                got = leaf_maximal(batch, m, depth)
                assert got.shape == batch.shape
                for row in range(size):
                    single = leaf_maximal(batch[row], m, depth)
                    assert np.array_equal(got[row], single), (m, depth, size, row)

    def test_constant_input(self):
        out = leaf_maximal(np.full(8, 1.75), 2, 3)
        assert np.array_equal(out, np.full(8, 1.75))

    def test_wrong_length(self):
        with pytest.raises(DomainError):
            leaf_maximal(np.ones(7), 2, 3)


class TestRows:
    def test_rows_do_not_depend_on_the_refill(self):
        # rows drawn in chunks are the rows drawn in one call: the top 53
        # bits of getrandbits(64), word after word
        whole = _rows(random.Random(3), 64)
        rng = random.Random(3)
        parts = []
        for count in (1, 5, 2, 56):
            parts += _rows(rng, count)
        assert parts == whole
        rng = random.Random(3)
        assert whole == [rng.getrandbits(64) >> 11 for _ in range(64 * _ROW)]

    def test_distinct_picks_reach_each_ordered_tuple_once(self):
        # the smallest word that decodes to x over s values, for every pick:
        # a bijection onto the ordered tuples of distinct indices, so picks
        # are uniform to within n / 2^53
        for n in (2, 3, 4, 5):
            for k in range(1, min(n, 3) + 1):
                got = [tuple(_distinct([-(-x * 2**53 // (n - t)) for t, x in enumerate(xs)],
                                       0, k, n))
                       for xs in itertools.product(*(range(n - t) for t in range(k)))]
                assert sorted(got) == sorted(itertools.permutations(range(n), k)), (n, k)

    def test_cells_are_distinct_and_in_range(self):
        # words 1-4 at both ends of their range, at 3 and 4 cells, with
        # slack of 0, 2 and 3 cells; only a slack move refuses, when i hits
        # its pair
        edges = (0, 2**53 - 1)
        for n in (3, 4):
            for slack in ([], [0, n - 1], [0, 1, n - 1]):
                for words in itertools.product(edges, repeat=4):
                    cells = _cells([0, *words, 0, 0, 0], 0, n, slack)
                    to_slack = len(slack) >= 2 and words[0] == 0
                    if cells is None:
                        assert to_slack
                        continue
                    assert len(set(cells)) == 3 and all(0 <= c < n for c in cells)
                    if to_slack:
                        assert set(cells[1:]) <= set(slack)


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

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(q=st.floats(1e-3, 1.0 - 1e-3), n=st.sampled_from([2, 3, 8, 27, 64, 256]),
           f=st.floats(0.1, 10.0), edge=st.sampled_from(["one cell", "hoelder"]),
           data=st.data())
    def test_feasibility_edges_repair_or_refuse(self, q, n, f, edge, data):
        # h at the least q-mass f^q n^(q-1) (all mass in one cell), or just
        # under the Hoelder shortcut f^q (1 - 1e-12)
        h = (f**q * n ** (q - 1.0) if edge == "one cell"
             else math.nextafter(f**q * (1.0 - 1e-12), 0.0))
        sdev, zeros = data.draw(st.sampled_from([0.1, 1.0, 5.0])), data.draw(st.booleans())
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        v = np.array([math.exp(rng.gauss(0.0, sdev)) for _ in range(n)])
        if zeros:
            v[[rng.random() < 0.3 for _ in range(n)]] = 0.0
        try:
            out = project_to_moments(v, f, h, q)
        except InfeasibleStartError:
            return
        assert abs(out.mean() - f) <= 1e-10 * max(1.0, f)
        assert abs((out**q).mean() - h) <= 1e-10 * max(1.0, h)

    @pytest.mark.parametrize("f", [1.0, 1e-30, 1e-100])
    def test_near_the_one_cell_edge_both_moments_are_relative(self, f):
        # h just above f^q n^(q-1) at q = 0.01: the cells beside the heavy
        # one must carry their q-mass on values that underflow, so these
        # draws are refused; closing checks absolute where h < 1 once let
        # misses of up to 2e-7 relative through
        q, n = 0.01, 256
        rng = random.Random(5)
        for _ in range(40):
            h = f**q * n ** (q - 1.0) * (1.0 + 10.0 ** rng.uniform(-9.0, -3.0))
            sdev, zeros = rng.choice((1.0, 5.0, 20.0)), rng.choice((0.0, 0.9, 0.99))
            v = np.array([0.0 if rng.random() < zeros else math.exp(rng.gauss(0.0, sdev))
                          for _ in range(n)])
            try:
                out = project_to_moments(v, f, h, q)
            except InfeasibleStartError:
                continue
            assert abs(out.mean() - f) <= 1e-10 * f
            assert abs((out**q).mean() - h) <= 1e-10 * h

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
            assert a + b == pytest.approx(s1, rel=1e-13, abs=0.0)
            assert a**q + b**q == pytest.approx(s2, rel=1e-13, abs=0.0)
        assert hits > 50

    @pytest.mark.parametrize("q", [0.001, 0.1, 0.5, 0.9])
    def test_top_of_the_band(self, q):
        # s2 a few ulps below 2^(1-q) s1^q: the root sits where the slope of
        # y -> y + (s1 - y^(1/q))^q vanishes and Newton slows to linear
        for s1 in (1e-9, 0.3, 1.0, 7.5, 1e12):
            s2 = 2.0 ** (1.0 - q) * s1**q
            for _ in range(6):
                s2 = math.nextafter(s2, 0.0)
                a, b = search._pair_targets(s1, s2, q)
                assert 0.0 <= a <= b
                assert abs(a + b - s1) <= 1e-13 * s1
                assert abs(a**q + b**q - s2) <= 1e-13 * s2

    def test_closed_form_at_q_one_half(self):
        # at q = 1/2, y = sqrt(a) solves y + sqrt(s1 - y^2) = s2:
        # y = (s2 - sqrt(2 s1 - s2^2)) / 2
        rng = random.Random(43)
        for _ in range(300):
            s1 = 10.0 ** rng.uniform(-6.0, 6.0)
            s2 = math.sqrt(s1) * (1.0 + (math.sqrt(2.0) - 1.0) * rng.random())
            a, b = search._pair_targets(s1, s2, 0.5)
            y = (s2 - math.sqrt(2.0 * s1 - s2 * s2)) / 2.0
            # the closed form itself cancels to a few ulps of s2 near y = 0
            assert abs(math.sqrt(a) - y) <= 1e-14 * s2
            assert abs(a + b - s1) <= 1e-15 * s1

    @pytest.mark.parametrize("scale", [1.0, 1e-10])
    @pytest.mark.parametrize("q", [0.001, 0.01, 0.1, 0.5, 0.9])
    def test_both_moments_held_when_one_root_is_tiny(self, q, scale):
        # the pair's smaller root may sit decades below the larger one; a
        # bisection on a itself resolves it only to about 1e-15 s1, which at
        # small q misses its q-mass a^q by up to a few percent
        rng = random.Random(41)
        hits = 0
        for _ in range(400):
            vk = rng.uniform(0.1, 3.0)
            vj = vk * 10.0 ** rng.uniform(-40.0, 0.0)
            vi = rng.uniform(0.0, 3.0)
            t = vi if rng.random() < 0.5 else vi * rng.uniform(0.5, 1.5)
            vi, vj, vk, t = (x * scale for x in (vi, vj, vk, t))
            sol = _three_cell_targets(vi, vj, vk, t, q)
            if sol is None:
                continue
            hits += 1
            a, b = sol
            assert a >= 0.0 and b >= 0.0
            mass, q_mass = vi + vj + vk, vi**q + vj**q + vk**q
            assert abs(t + a + b - mass) <= 1e-13 * mass
            assert abs(t**q + a**q + b**q - q_mass) <= 1e-13 * q_mass
        assert hits > 100

    def test_small_q_search_meets_both_moments(self):
        # bklab search --q 0.1 --f 1 --h 0.8 --L 1.2 --N 10 --seed 0
        # --budget 200 --restarts 2 once missed h by 4.1e-5 relative
        params = BellmanParams(q=0.1, f=1.0, h=0.8, L=1.2)
        spec = TreeSpec(2, 10)
        rep = local_search(params, spec, seed=0, budget=200, restarts=2)
        vals = leaf_array(rep.best_phi, spec)
        assert abs(vals.mean() - params.f) <= 1e-12 * params.f
        assert abs((vals**params.q).mean() - params.h) <= 1e-12 * params.h

    def test_band_is_relative_to_the_scale(self):
        # a q-mass 1e-6 relative below the band at scale 1e-100 once passed
        # an absolute 1e-13 slack and came back as (0, s1), dropping it
        s1, q = 2e-100, 0.5
        assert _three_cell_targets(s1, 0.0, 0.0, 0.0, q) == (0.0, s1)
        assert search._pair_targets(s1, s1**q * (1.0 - 1e-6), q) is None
        assert search._pair_targets(s1, 2.0 ** (1.0 - q) * s1**q * (1.0 + 1e-6), q) is None
        params = BellmanParams(q=0.5, f=1e-100, h=0.8e-50, L=1.2e-100)
        spec = TreeSpec(2, 4)
        rep = local_search(params, spec, budget=300, restarts=2)
        vals = leaf_array(rep.best_phi, spec)
        assert abs(vals.mean() - params.f) <= 1e-12 * params.f
        assert abs((vals**params.q).mean() - params.h) <= 1e-12 * params.h

    def test_underflowing_root_is_refused(self):
        # a^0.001 = 0.3 needs a = 0.3^1000, below the float range
        s1, q = 2.0, 0.001
        assert search._pair_targets(s1, s1**q + 0.3, q) is None
        a, b = search._pair_targets(s1, s1**q + 0.6, q)
        assert abs(a**q + b**q - (s1**q + 0.6)) <= 1e-13 * (s1**q + 0.6)
        # such a pair once came back with a = 0, dropping its share of the
        # q-mass: this search missed h by 10% relative
        params = BellmanParams(q=0.001, f=1.0, h=0.5, L=1.2)
        spec = TreeSpec(2, 6)
        vals = leaf_array(local_search(params, spec, seed=1, budget=500, restarts=2).best_phi, spec)
        assert abs(vals.mean() - params.f) <= 1e-12 * params.f
        assert abs((vals**params.q).mean() - params.h) <= 1e-12 * params.h

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
        assert a.to_json_obj() == b.to_json_obj()

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
        0: ("0x1.72f67c8421d12p+0", "0x1.bec2dbc02f82ep-1"),
        1: ("0x1.74fff300dec64p+0", "0x1.347971a7fcf31p-1"),
        2: ("0x1.73124c2fd4c68p+0", "0x1.dbcf78b490592p-1"),
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
        (2, 8, 1, 2): ("0x1.72e00487ca8b4p+0", "0x1.cf6063508af7ap-1", 1, 2,
                       "0c7e05d43b937be434c563f67915f653cb1f983d8d24db51e0b33115bb1f35e6"),
        (2, 8, 7, 2): ("0x1.72e59490d8201p+0", "0x1.ccfd4cbf820a2p-1", 1, 14,
                       "cab0a2b7594f8ac455db6a807199a92244b5b0424c5dfa1c68890e38cfa54c1c"),
        (2, 8, 8, 2): ("0x1.72e59490d8201p+0", "0x1.ccfd4cbf820a2p-1", 1, 16,
                       "cab0a2b7594f8ac455db6a807199a92244b5b0424c5dfa1c68890e38cfa54c1c"),
        (2, 8, 9, 2): ("0x1.72e59490d8201p+0", "0x1.ccfd4cbf820a2p-1", 1, 18,
                       "cab0a2b7594f8ac455db6a807199a92244b5b0424c5dfa1c68890e38cfa54c1c"),
        (2, 8, 300, 2): ("0x1.72f67c8421d12p+0", "0x1.bec2dbc02f82ep-1", 1, 600,
                         "7efa622e882072a25e495674cbf5ca2cb3d1480ebf4f3b6af8713332525f4e83"),
        (3, 5, 500, 3): ("0x1.63c3518cb437bp+0", "0x1.bc4f668e57f45p-1", 0, 1500,
                         "774361f61a85414e766535ac3101bb57252070294eef403bd0628336c6a5a9aa"),
        (4, 4, 500, 3): ("0x1.603f5f9dd5484p+0", "0x1.c8f103cda3ecap-1", 0, 1500,
                         "f0256f4ce562e99110074f3d8c72403127137a658644320b5021e758619dc95c"),
        (2, 10, 200, 2): ("0x1.745d731bea7dap+0", "0x1.ec57818a019aep-1", 1, 400,
                          "c87c5170b4da9ef7ec0a2541d13606df2bdbe96e44ebf3d278c40cd064b6e939"),
    }
    # one warm-started run: depth 6, seed 3, budget 400, one built-in restart
    WARM_START = ("0x1.72954717a75d4p+0", "0x1.7306b53a901bep-1", 1, 800,
                  "cc280af793d4c51ed2c3887ffaa3383bb2cd6c6bc6bcb3352b0a39886da15745")

    @staticmethod
    def _trajectory(rep, spec):
        digest = hashlib.sha256(leaf_array(rep.best_phi, spec).tobytes()).hexdigest()
        return (rep.objective.hex(), rep.residual.hex(), rep.best_restart,
                rep.iterations, digest)

    def test_pins_hold_under_compensated_sum(self, monkeypatch):
        # from Python 3.12 on, sum() of floats is compensated; the search,
        # the float tree levels and the evaluators add their floats in index
        # order instead, so the pins hold there as well
        assert compensated_sum([1.0, 1e-16, 1e-16]) != 1.0

        def shapes():  # every seed kind at m = 2, 3, 4; the pins reach only kinds 0-2
            return [_seed_values(PARAMS, TreeSpec(m, 4), kind, random.Random(kind))
                    for m in (2, 3, 4) for kind in range(6)]

        want = shapes()
        for module in (search, dyadic, transforms):
            monkeypatch.setattr(module, "sum", compensated_sum, raising=False)
        assert all(same_bits(a, b) for a, b in zip(shapes(), want))
        for seed in self.PINNED:
            self.test_fixed_seed_results_are_pinned(seed)
        self.test_trajectories_pinned_across_trees()
        TestLeafMaximal().test_matches_tree_evaluator()
        # the evaluator pins of the other test modules
        test_dyadic, test_transforms = sibling("test_dyadic"), sibling("test_transforms")
        test_dyadic.TestExactCore().test_outputs_pinned()
        bits = test_transforms.TestEvaluatorBits()
        bits.test_outputs_pinned()
        bits.test_gap_evaluators_pinned()
        suite = test_transforms.TestVerifySuite()
        suite.test_pinned_rows_and_min_slack()
        suite.test_pinned_rows_off_the_binary_tree()
        test_transforms.TestGPhi().test_outputs_pinned()

    def test_pins_hold_without_avx512_loops(self):
        # the search pins, run in a subprocess with NumPy's AVX-512 loops
        # switched off; where NumPy refuses the setting there is nothing to run
        src = str(Path(search.__file__).parents[1])
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR",
                   PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        probe = subprocess.run([sys.executable, "-W", "error", "-c", "import numpy"],
                               env=env, capture_output=True, text=True)
        if probe.returncode:
            pytest.skip("NumPy refuses NPY_DISABLE_CPU_FEATURES on this build: "
                        + probe.stderr.strip().splitlines()[-1])
        pins = "fixed_seed_results_are_pinned or trajectories_pinned_across_trees"
        run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                              __file__, "-k", pins], env=env, capture_output=True, text=True)
        assert run.returncode == 0 and "4 passed" in run.stdout, run.stdout[-3000:]

    def test_reports_do_not_depend_on_the_window(self, monkeypatch):
        # proposal p reads row p of the random words whatever the window
        # width or the refill size
        cases = [(TreeSpec(m, depth), budget, restarts)
                 for m, depth, budget, restarts in ((2, 8, 300, 2), (3, 5, 200, 3), (4, 4, 200, 3))]
        want = [self._report_bytes(local_search(PARAMS, spec, seed=0, budget=budget,
                                                restarts=restarts))
                for spec, budget, restarts in cases]
        for width, refill in ((1, 64), (3, 1), (8, 5), (16, 64)):
            monkeypatch.setattr(search, "_WINDOW_ROWS", width)
            monkeypatch.setattr(search, "_REFILL", refill)
            got = [self._report_bytes(local_search(PARAMS, spec, seed=0, budget=budget,
                                                   restarts=restarts))
                   for spec, budget, restarts in cases]
            assert got == want, (width, refill)

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

    @staticmethod
    def _report_bytes(rep):
        return render_json(rep.to_json_obj()).encode()

    # (m, depth, budget, restarts): local_search scores the windows of a
    # group of restarts in one call; each chain must follow the trajectory
    # it takes when scored alone
    LOCKSTEP = ((2, 8, 300, 3), (3, 5, 200, 3), (4, 4, 200, 3), (2, 12, 40, 3))

    @pytest.mark.parametrize("group", [1, 2, None])
    def test_lockstep_groups_match_chains_scored_alone(self, monkeypatch, group):
        for m, depth, budget, restarts in self.LOCKSTEP:
            spec = TreeSpec(m, depth)
            values = (group or restarts) * (search._WINDOW_ROWS + 1) * spec.n_leaves
            monkeypatch.setattr(search, "_BATCH_VALUES", values)
            want = solo_search(PARAMS, spec, 0, budget, restarts)
            rep = local_search(PARAMS, spec, seed=0, budget=budget, restarts=restarts)
            assert self._trajectory(rep, spec) == self._trajectory(want, spec), (m, depth)
            assert self._report_bytes(rep) == self._report_bytes(want), (m, depth)
        # another seed, one warm start and one start that cannot be repaired
        spec = TreeSpec(2, 6)
        extras = [np.zeros(spec.n_leaves),
                  np.repeat([4.0, 2.0, 1.0, 1.0, 0.5, 0.5, 0.25, 0.0], 8)]
        monkeypatch.setattr(search, "_BATCH_VALUES",
                            (group or 5) * (search._WINDOW_ROWS + 1) * spec.n_leaves)
        want = solo_search(PARAMS, spec, 7, 300, 3, extras)
        rep = local_search(PARAMS, spec, seed=7, budget=300, restarts=3,
                           extra_seeds=extras)
        assert rep.restarts == 5 and rep.iterations == 4 * 300
        assert self._report_bytes(rep) == self._report_bytes(want)

    def test_top_restart_reported_beside_the_selected_one(self, capsys):
        # at this seed restart 1 reaches the best greedy objective, but
        # restart 3 is inside the band with a smaller defect
        spec = TreeSpec(2, 4)
        rep = local_search(PARAMS, spec, seed=8, budget=400, restarts=4)
        greedy = solo_greedy(PARAMS, spec, 8, 400, 4)
        assert (rep.best_restart, rep.top_restart) == (3, 1)
        assert rep.top_objective > rep.objective
        assert rep.top_objective == max(obj for _, obj, _ in greedy)
        assert [obj for ridx, obj, _ in greedy if ridx == 1] == [rep.top_objective]
        code = main(["search", "--q", "0.5", "--f", "1", "--h", "0.8", "--L", "1.2",
                     "--N", "4", "--seed", "8", "--budget", "400", "--restarts", "4"])
        got = json.loads(capsys.readouterr().out)
        assert code == 0
        assert (got["top_objective"], got["top_restart"]) == (rep.top_objective, 1)
        assert (got["objective"], got["best_restart"]) == (rep.objective, 3)

    def test_oracle_and_hoelder_report_their_own_top(self):
        for rep in (brute_force_oracle(PARAMS, TreeSpec(2, 2), grid=6),
                    local_search(BellmanParams(q=0.5, f=1.0, h=1.0, L=1.2),
                                 TreeSpec(2, 3), budget=10, restarts=2)):
            assert (rep.top_objective, rep.top_restart) == (rep.objective, 0)

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
        # the defect scales cells up to n f = 1.7e194 by c^(1/q) = 2.1e289
        big = BellmanParams(q=0.0010164164139024425, f=4.353577890081047e+193,
                            h=0.8006905011566328, L=1.7114562146842554e+194)
        with pytest.raises(DomainError, match=r"c\^\(1/q\) n f overflows a float"):
            local_search(big, TreeSpec(2, 2), budget=1, restarts=1)

    def test_underflowed_tau_starts_from_a_pair(self):
        # tau = L / c^(1/q) underflows to 0: kinds 0-3 keep one positive cell
        # and the a*v^b repair of kinds 4-5 underflows, so every restart
        # starts from two cells that carry both moments
        p = BellmanParams(q=0.01017662341346305, f=2.6175569601390684e-273,
                          h=0.00032036374090336546, L=1.5259589128241204e-268)
        assert p.tau == 0.0
        spec = TreeSpec(2, 3)
        rep = local_search(p, spec, budget=5, restarts=12)
        vals = leaf_array(rep.best_phi, spec)
        assert abs(vals.mean() - p.f) <= 1e-9 * p.f
        assert abs((vals**p.q).mean() - p.h) <= 1e-9 * p.h

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
    m = draw(st.sampled_from((2, 3, 4)))
    depth = draw(st.integers(2 if m == 2 else 1, (5, 4, 3)[m - 2]))
    n = m**depth
    L = draw(st.sampled_from((0.5, 1.2, 4.0)))
    scale = draw(st.floats(0.1, 3.0)) * L
    value = st.one_of(st.floats(0.0, scale), st.sampled_from((0.0, -0.0, L)))
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
    def test_passed_iff_the_floor_keeps_its_bits(self, case):
        # on cells below the floor the check is exact both ways, and the
        # averages it hands back turn the levels into those of the moved array
        vals, L, q, m, depth, cells, new = case
        obj, mx = _objective(vals, L, q, m, depth)
        moved = vals.copy()
        moved[list(cells)] = new
        moved_obj, moved_mx = _objective(moved, L, q, m, depth)
        kept = (same_bits(np.maximum(moved_mx, L), np.maximum(mx, L))
                and np.array_equal(moved_mx < L, mx < L))
        levels = _levels(vals.copy(), m, depth)
        changes = _moved_averages(levels, cells, new, L, m)
        assert (changes is not None) == kept
        if changes is None:
            return
        assert moved_obj.hex() == obj.hex()
        for level, c, t in changes:
            level[c] = t
        assert all(same_bits(got, want) for got, want in zip(levels, _levels(moved, m, depth)))

    def test_refuses_mass_that_fills_a_block(self):
        # raising cell 0 to 0.9 lifts its two-cell block's average,
        # (0.9 + 1.5) / 2, to L itself, which moves cell 0 out of the < L
        # mask; 0.85 keeps the block below L
        L, q = 1.2, 0.5
        vals = np.array([0.1, 1.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5])
        obj, mx = _objective(vals, L, q, 2, 3)
        for cell0, kept in ((0.9, False), (0.85, True)):
            cells, new = (0, 2, 4), (cell0, 0.5, 0.5)
            changes = _moved_averages(_levels(vals, 2, 3), cells, new, L, 2)
            assert (changes is not None) is kept
            moved = vals.copy()
            moved[list(cells)] = new
            moved_obj, moved_mx = _objective(moved, L, q, 2, 3)
            assert bool(moved_mx[0] < L) is kept
            assert moved_obj == obj

    def test_refuses_a_reservoir_that_left_the_slack(self):
        # cell 4 is above the floor (1.5 > L); every new value and every
        # new average is below L, so only the averages before the move
        # refuse it, and the move does lower the objective
        L, q = 1.2, 0.5
        vals = np.array([0.5, 0.5, 0.5, 0.5, 1.5, 0.0, 0.5, 0.5])
        cells, new = (0, 4, 6), (0.6, 1.0, 0.9)
        assert _moved_averages(_levels(vals, 2, 3), cells, new, L, 2) is None
        below = vals.copy()
        below[4] = 1.1
        assert _moved_averages(_levels(below, 2, 3), cells, new, L, 2) is not None
        moved = vals.copy()
        moved[list(cells)] = new
        assert _objective(moved, L, q, 2, 3)[0] < _objective(vals, L, q, 2, 3)[0]

    def test_tail_takes_only_certified_moves(self, monkeypatch):
        # a passed move keeps max(M phi, L) bit for bit, so the tail needs
        # M phi once, returns its input's objective and totals the defect at
        # the end from the floor it started with; the levels it keeps are
        # those of its array after every move it takes.  local_search runs
        # it only on restarts inside the selection band, and running it on
        # every restart gives the same report
        cases = ((BellmanParams(q=0.3, f=1.0, h=0.8, L=1.2), TreeSpec(2, 7)),
                 (PARAMS, TreeSpec(3, 5)))
        every_tail = [solo_search(params, spec, 0, 300, 2) for params, spec in cases]
        tail, moved_averages = search._consolidate_tail, search._moved_averages
        run_restart = search._run_restart
        calls = []

        def counted(values, m, depth):
            calls.append(values.shape)
            return leaf_maximal(values, m, depth)

        def fresh(levels, m):
            return all(same_bits(got, want) for got, want in
                       zip(levels, _levels(levels[-1].copy(), m, len(levels) - 1)))

        monkeypatch.setattr(search, "leaf_maximal", counted)
        skipped = 0
        for (params, spec), want in zip(cases, every_tail):
            m, depth, n, L, q = spec.m, spec.depth, spec.n_leaves, params.L, params.q
            greedy, tails, seen = {}, [], []

            def recorded(params, spec, ridx, *args, **kwargs):
                greedy[ridx] = yield from run_restart(params, spec, ridx, *args, **kwargs)
                return greedy[ridx]

            def checked_moves(levels, cells, new, L, m):
                # the levels handed over are today's vals'
                assert fresh(levels, m)
                seen.append(levels)
                return moved_averages(levels, cells, new, L, m)

            def checked_tail(vals, params, spec):
                start = vals.copy()
                floor = np.maximum(leaf_maximal(start, m, depth), L)
                want = float(leaf_objective(start, L, q, m, depth))
                calls.clear()
                seen.clear()
                tails.append(next(r for r, (_, v) in greedy.items() if v is vals))
                obj, defect, out = tail(vals, params, spec)
                assert calls == [(n,)]
                assert not np.array_equal(out, start)
                assert seen[-1][-1] is out and fresh(seen[-1], m)
                assert obj.hex() == want.hex()
                after = np.maximum(leaf_maximal(out, m, depth), L)
                assert np.array_equal(after, floor)
                full = (np.abs(after - params.eigenvalue_root * out) ** q).sum() / n
                assert defect.hex() == float(full).hex()
                return obj, defect, out

            monkeypatch.setattr(search, "_run_restart", recorded)
            monkeypatch.setattr(search, "_moved_averages", checked_moves)
            monkeypatch.setattr(search, "_consolidate_tail", checked_tail)
            rep = local_search(params, spec, seed=0, budget=300, restarts=2)
            top = max(obj for obj, _ in greedy.values())
            band = [r for r, (obj, _) in sorted(greedy.items())
                    if obj >= top * (1.0 - search._SELECT_REL_TOL)]
            assert len(greedy) == 2 and tails == band, spec
            assert render_json(rep.to_json_obj()) == render_json(want.to_json_obj())
            skipped += len(greedy) - len(tails)
        # the cases hold restarts outside the band, whose tails are skipped
        assert skipped > 0


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
