"""The four workloads: inputs made from a seed, the timed call, its checks.

Each workload has a ``round``: a list of inputs built once from the seed.
A run repeats whole rounds, so every run attempts the same operations in the
same proportions.  ``run(input)`` is the timed call into bklab's public API;
``check(input, output)`` returns a list of problems (empty when the output
is right), computed apart from the timed call.  ``quality()`` gives the two
deterministic figures of merit, objective and residual, on inputs that do
not depend on the seed, so they repeat exactly from run to run.
"""

from __future__ import annotations

import random
import statistics
import time
from itertools import islice
from typing import NamedTuple

import numpy as np

import bklab
from bklab import cli, dyadic, kernel, search, transforms

import reference as ref

# Functions wrapped in the traced run, as (span name, original object).
TRACED = (
    ("kernel.omega_q", kernel.omega_q),
    ("kernel.chi_lambda", kernel.chi_lambda),
    ("kernel.rho_interval", kernel.rho_interval),
    ("kernel.r_k", kernel.r_k),
    ("kernel.maximize_r_k", kernel.maximize_r_k),
    ("dyadic.tree_averages", dyadic.tree_averages),
    ("dyadic.linearize", dyadic.linearize),
    ("dyadic.maximal_function", dyadic.maximal_function),
    ("dyadic.s_phi_by_criterion", dyadic.s_phi_by_criterion),
    ("dyadic.excess_set", dyadic.excess_set),
    ("dyadic.weak_type_gap", dyadic.weak_type_gap),
    ("dyadic.kolmogorov_gap", dyadic.kolmogorov_gap),
    ("dyadic.from_leaf_values", dyadic.StepFunction.from_leaf_values),
    ("transforms.theorem41_gap", transforms.theorem41_gap),
    ("transforms.theorem42_gap", transforms.theorem42_gap),
    ("transforms.corollary41_gap", transforms.corollary41_gap),
    ("transforms.g_phi", transforms.g_phi),
    ("transforms.ancestor_max_averages", transforms.ancestor_max_averages),
    ("transforms.random_step_function", transforms.random_step_function),
    ("transforms.eigen_residual", transforms.eigen_residual),
    ("search.leaf_maximal", search.leaf_maximal),
    ("search.project_to_moments", search.project_to_moments),
)
TRACED_MODULES = (bklab, kernel, dyadic, transforms, search, cli)

# The paper's test point (q, f, h, L).
TEST_POINT = kernel.BellmanParams(q=0.5, f=1.0, h=0.8, L=1.2)
# Functions drawn at random get their threshold at this multiple of their mean.
L_OVER_F = 1.2
# Seeds of the fixed inputs that objective and residual are measured on.
QUALITY_SEEDS = tuple(range(9))


def _rel_close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b))


def _function_quality(phi, spec, q: float) -> tuple[float, float, list[str]]:
    """bklab's objective and eigen-residual of phi at L = 1.2 * mean, checked."""
    leaves = phi.leaf_values(spec)
    v = np.array([float(x) for x in leaves])
    f = float(v.mean())
    h = float((v**q).mean())
    params = kernel.BellmanParams(q=q, f=f, h=h, L=L_OVER_F * f)
    obj = transforms.objective(phi, params.L, q, spec)
    res = transforms.eigen_residual(phi, params, spec).total
    if phi.is_exact:
        mx = np.array([float(x) for x in ref.exact_maximal(leaves, spec.m, spec.depth)])
    else:
        mx = ref.float_maximal(v, spec.m, spec.depth)
    problems = []
    if not _rel_close(obj, ref.objective(mx, params.L, q), 1e-9):
        problems.append(f"objective {obj} disagrees with the recomputation")
    mine = ref.eigen_residual(mx, v, params.L, q, params.eigenvalue_root)
    if not _rel_close(res, mine, 1e-9):
        problems.append(f"eigen residual {res} disagrees with the recomputation {mine}")
    return obj, res, problems


class Quality(NamedTuple):
    objective: float
    residual: float
    problems: list[str]


def _median_quality(rows) -> Quality:
    rows = list(rows)
    return Quality(statistics.median(r[0] for r in rows),
                   statistics.median(r[1] for r in rows),
                   [p for r in rows for p in r[2]])


# -- search --------------------------------------------------------------


class Search:
    """local_search at depth 8 over a fixed list of search seeds."""

    spec = bklab.TreeSpec(2, 8)
    seeds = tuple(range(24))
    budget = 1000
    restarts = 2

    def __init__(self, seed: int) -> None:
        order = list(self.seeds)
        random.Random(seed).shuffle(order)
        self.round = order
        self._first: dict[int, tuple[float, float]] = {}
        p = TEST_POINT
        self._bound = ref.bellman_half(p.f, p.h, p.L)

    def warm_up(self) -> None:
        search.local_search(TEST_POINT, self.spec, seed=0, budget=50, restarts=1)

    def run(self, s: int):
        return search.local_search(TEST_POINT, self.spec, seed=s,
                                   budget=self.budget, restarts=self.restarts)

    @staticmethod
    def units(report) -> int:
        return report.iterations

    def check(self, s: int, rep) -> list[str]:
        p = TEST_POINT
        out = []
        if not _rel_close(rep.analytic_bound, self._bound, 1e-12):
            out.append(f"bound {rep.analytic_bound} != closed form {self._bound}")
        v = np.array([float(x) for x in rep.best_phi.leaf_values(self.spec)])
        if v.min() < 0:
            out.append("best_phi has a negative value")
        if not _rel_close(float(v.mean()), p.f, 1e-9):
            out.append(f"best_phi mean {v.mean()} != f")
        if not _rel_close(float((v**p.q).mean()), p.h, 1e-9):
            out.append(f"best_phi q-mean {(v**p.q).mean()} != h")
        mx = ref.float_maximal(v, self.spec.m, self.spec.depth)
        obj = ref.objective(mx, p.L, p.q)
        if not _rel_close(rep.objective, obj, 1e-9):
            out.append(f"objective {rep.objective} != recomputed {obj}")
        root = p.eigenvalue_root
        if not _rel_close(root, ref.eigen_root_half(p.f, p.h, p.L), 1e-10):
            out.append(f"c^(1/q) = {root} disagrees with the closed form")
        res = ref.eigen_residual(mx, v, p.L, p.q, root)
        if not _rel_close(rep.residual, res, 1e-9):
            out.append(f"residual {rep.residual} != recomputed {res}")
        if not (p.L**p.q * (1 - 1e-12) <= rep.objective <= rep.analytic_bound):
            out.append(f"objective {rep.objective} outside [L^q, bound]")
        first = self._first.setdefault(s, (rep.objective, rep.residual))
        if first != (rep.objective, rep.residual):
            out.append(f"seed {s} gave {rep.objective}, {rep.residual} after {first}")
        return out

    def quality(self) -> Quality:
        missing = [s for s in self.seeds if s not in self._first]
        problems = [f"no report for seeds {missing}"] if missing else []
        return Quality(statistics.median(obj for obj, _ in self._first.values()),
                       statistics.median(res for _, res in self._first.values()), problems)


# -- verify --------------------------------------------------------------


class Verify:
    """verify_suite on one random float function per item."""

    spec = bklab.TreeSpec(2, 6)
    q = 0.5
    n_beta = 50
    size = 60
    checks_per_function = 3 * 50 + 5 + 3

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.round = [rng.randrange(2**32) for _ in range(self.size)]

    def warm_up(self) -> None:
        for s in self.round[:2]:
            self.run(s)

    def run(self, s: int):
        return transforms.verify_suite(1, self.spec, self.q, n_beta=self.n_beta, seed=s)

    def check(self, s: int, rep) -> list[str]:
        out = []
        if rep.n_phi != 1 or rep.n_checks != self.checks_per_function:
            out.append(f"{rep.n_checks} checks, expected {self.checks_per_function}")
        if rep.n_violations:
            out.append(f"{rep.n_violations} violations, min slack {rep.min_slack}")
        return out

    def quality(self) -> Quality:
        # verify_suite draws its function first from random.Random(seed)
        return _median_quality(
            _function_quality(transforms.random_step_function(random.Random(s), self.spec),
                              self.spec, self.q)
            for s in QUALITY_SEEDS)


# -- exact ---------------------------------------------------------------


class Exact:
    """The rational-mode pipeline on random exact functions."""

    spec = bklab.TreeSpec(2, 6)
    q = 0.5
    L = 1.2
    size = 100

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.round = [transforms.random_step_function(rng, self.spec, exact=True)
                      for _ in range(self.size)]

    def warm_up(self) -> None:
        for phi in self.round[:2]:
            self.run(phi)

    def run(self, phi):
        spec = self.spec
        lin = dyadic.linearize(phi, spec)
        mphi = dyadic.maximal_function(phi, spec)
        sphi = dyadic.s_phi_by_criterion(phi, spec)
        g, _ = transforms.g_phi(phi, self.L, self.q, spec)
        mg = transforms.ancestor_max_averages(g, spec)
        return lin, mphi, sphi, g, mg

    def check(self, phi, result) -> list[str]:
        lin, mphi, sphi, g, mg = result
        spec = self.spec
        mine = ref.exact_maximal(phi.leaf_values(spec), spec.m, spec.depth)
        out = []
        if mphi.leaf_values(spec) != mine:
            out.append("maximal_function differs from the prefix-sum M phi")
        if lin.maximal_from_parts().leaf_values(spec) != mine:
            out.append("maximal_from_parts differs from the prefix-sum M phi")
        if frozenset(lin.elements) != sphi:
            out.append("s_phi_by_criterion differs from the linearization's elements")
        if sum(lin.weights.values()) != 1:
            out.append(f"weights sum to {sum(lin.weights.values())}")
        if g.integral() != phi.integral():
            out.append("g_phi changed the integral")
        if abs(g.q_integral(self.q) - phi.q_integral(self.q)) > 1e-9:
            out.append("g_phi changed the q-integral by more than 1e-9")
        if not all(a >= b for a, b in zip(mg, mine)):
            out.append("M g < M phi somewhere")
        return out

    def quality(self) -> Quality:
        return _median_quality(
            _function_quality(
                transforms.random_step_function(random.Random(s), self.spec, exact=True),
                self.spec, self.q)
            for s in QUALITY_SEEDS)


# -- kernel --------------------------------------------------------------


def criterion3_draws(seed: int):
    """Endless (q, k, f, h, mu) draws: (q, k, f, h) as acceptance criterion 3
    draws them from np.random.default_rng(seed), mu from a second stream."""
    rng = np.random.default_rng(seed)
    mu_rng = np.random.default_rng([seed, 1])
    while True:
        q = float(rng.uniform(0.15, 0.85))
        k = float(rng.uniform(0.1, 0.9))
        f = float(rng.uniform(0.5, 2.0))
        h = f**q * float(rng.uniform(0.55, 0.98))
        yield q, k, f, h, float(mu_rng.uniform(1.05, 3.0))


class Kernel:
    """Closed forms and bisections over random (q, k, f, h) draws."""

    size = 150
    grid = 33
    # np.random.default_rng(34)'s first draw: r_k rejects rho1, which
    # rho_interval returned, because l_k(rho1) - h = -1.4e-8 at small q
    fault = (0.15281977044513048, 0.7977415314164339, 0.8641135814066214,
             0.8116373519437352, 2.0)
    # Seeded draws whose upper window end is ill-conditioned are skipped
    # (about 1 in 275): one ulp of B there moves l_k by more than this share
    # of h.  r_k refuses rho1 only when that step exceeds 1e-9 (h - low), and
    # h - low >= 0.14 h on these draws; in the first 160 draws of generator
    # seeds 0..4999 every refusal had a step of at least 1.1e-9.
    ill_conditioned = 1e-11

    def __init__(self, seed: int) -> None:
        draws = (d for d in criterion3_draws(seed)
                 if ref.upper_end_ulp_step(*d[:4]) <= self.ill_conditioned)
        self.round = [self.fault, *islice(draws, self.size)]

    def warm_up(self) -> None:
        for d in self.round[1:3]:
            self.run(d)

    def run(self, draw):
        q, k, f, h, mu = draw
        bstar, value = kernel.maximize_r_k(k, q, f, h)
        rho0, rho1 = kernel.rho_interval(k, q, f, h)
        profile = [kernel.r_k(float(b), k, q, f, h)
                   for b in np.linspace(rho0, rho1, self.grid)]
        lam = f**q / h
        kk = kernel.k0(lam, mu, q)
        sig = kernel.sigma_q(kk, mu, q)
        chi = kernel.chi_lambda(lam, kk, q)
        bellman = kernel.bellman_value(q, f, h, mu * f)
        return bstar, value, rho0, rho1, profile, sig, chi, bellman

    def check(self, draw, result) -> list[str]:
        q, k, f, h, mu = draw
        bstar, value, rho0, rho1, profile, sig, chi, bellman = result
        out = []
        z = 1.0 + f / h
        if abs(kernel.omega_q(z, 0.5) - ref.omega_half(z)) > 1e-10:
            out.append(f"omega_q({z}, 1/2) off the closed form")
        lam = f**q / h
        if abs(sig - lam) > 1e-9:
            out.append(f"sigma_q(k0) = {sig} != lam = {lam}")
        if abs(chi - mu) > 1e-8:
            out.append(f"chi_lambda(k0) = {chi} != mu = {mu}")
        if value < max(profile) - 1e-9 * max(1.0, abs(value)):
            out.append(f"maximize_r_k value {value} below a grid value {max(profile)}")
        if not rho0 <= bstar <= rho1:
            out.append(f"argmax {bstar} outside [{rho0}, {rho1}]")
        if bellman < (mu * f) ** q * (1 - 1e-12):
            out.append(f"bellman_value {bellman} below L^q")
        return out

    def argmax_offset(self, draw) -> float:
        """|B* - grid argmax of r_k| as a share of the window, on a 33-point
        grid refined twice around its best point (final cell 1.2e-4 of the
        window, coarse enough that r_k's rounding cannot move the pick)."""
        q, k, f, h, _ = draw
        bstar, _ = kernel.maximize_r_k(k, q, f, h)
        rho0, rho1 = kernel.rho_interval(k, q, f, h)
        lo, hi = rho0, rho1
        for _ in range(3):
            grid = np.linspace(lo, hi, self.grid)
            i = int(np.argmax([kernel.r_k(float(b), k, q, f, h) for b in grid]))
            lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, self.grid - 1)]
        return abs(float(grid[i]) - bstar) / (rho1 - rho0)

    def quality(self) -> Quality:
        # criterion 3's own draws: the median Bellman value, and the median
        # distance from maximize_r_k's argmax to that of the r_k profile
        rows = []
        for d in islice(criterion3_draws(33), 20):
            q, _, f, h, mu = d
            rows.append((kernel.bellman_value(q, f, h, mu * f), self.argmax_offset(d), []))
        return _median_quality(rows)


WORKLOADS = {"search": Search, "verify": Verify, "exact": Exact, "kernel": Kernel}


# -- standalone per-layer probes -----------------------------------------


def _per_call_us(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e6


def probe_layers() -> dict[str, tuple[float, str]]:
    """Single-layer timings that no workload item isolates, with their units."""
    rng = np.random.default_rng(0)
    v10 = rng.random(2**10)
    v12 = rng.random(2**12)
    batch = rng.random((64, 2**8))
    p = TEST_POINT
    report = search.local_search(p, bklab.TreeSpec(2, 8), seed=0, budget=50, restarts=1)
    doc = report.to_json_obj()

    def params():
        fresh = kernel.BellmanParams(q=p.q, f=p.f, h=p.h, L=p.L)
        return fresh.value, fresh.tau, fresh.k0

    return {
        "search.leaf_maximal_us.d10":
            (_per_call_us(lambda: search.leaf_maximal(v10, 2, 10), 300), "us"),
        "search.leaf_maximal_us.d12":
            (_per_call_us(lambda: search.leaf_maximal(v12, 2, 12), 100), "us"),
        "search.leaf_maximal_batch_us":
            (_per_call_us(lambda: search.leaf_maximal(batch, 2, 8), 100) / len(batch), "us"),
        "kernel.params_us": (_per_call_us(params, 100), "us"),
        "cli.render_json_ms": (_per_call_us(lambda: cli.render_json(doc), 30) / 1e3, "ms"),
    }
