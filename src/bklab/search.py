"""Constrained maximization of the truncated maximal-function objective.

Maximizes integral of max(M phi, L)^q over leaf-aligned step functions with
both moments pinned: integral phi = f and integral phi^q = h.  The analytic
value h*c is an upper bound, so bound minus objective is a certified
optimality gap.  The optimizer is greedy multi-start local search; the core
move rewrites three cells, one freely and the other two by a safeguarded
Newton solve (_newton) so that both moments are restored exactly.  Each
start's moment repair finds its exponent by the same loop.  Swap and
block-sort moves, which preserve the moments trivially, speed up the
combinatorial packing part.
M phi comes from dyadic's levels recurrence, run in NumPy, so leaf_maximal
gives the bits of dyadic.maximal_function; its running max takes one
strided np.maximum per child on wide levels.  A closing tail parks
below-floor cells at the flat level tau to lower the extremality defect.
It takes only moves that keep max(M phi, L) bit for bit, checked exactly on
those levels, so it never changes the objective; only restarts inside the
selection band run it.

Restarts are independent, each seeded from (seed, restart index), so reports
are reproducible for a fixed seed.  Groups of them are scored in lockstep,
one leaf_maximal call per round, each on its own trajectory bit for bit.
Each greedy loop scores its proposals in speculative windows; proposal p
reads row p of its restart's random words, so no trajectory depends on the
window.  Proposals read the values as Python floats, and a window's rows
are one broadcast of the values and one scatter of the moved cells.  Python
float sums go through dyadic._sum_in_order, in index order, not through
sum(), which compensates from Python 3.12 on.
"""

from __future__ import annotations

import contextlib
import math
import operator
import random
from dataclasses import asdict, dataclass, fields

import numpy as np

from .dyadic import StepFunction, TreeSpec, _sum_in_order, excess_set
from .errors import (
    ComplexityGuardError,
    ConvergenceError,
    DomainError,
    InfeasibleStartError,
)
from .kernel import BellmanParams, _check_fh
from .transforms import eigen_residual


def _levels(v, m: int, depth: int) -> list:
    """Averages of nonnegative v over every element, [depth][..., index], by
    dyadic._levels' arithmetic: each its m children summed in index order
    onto 0.0, over m.  levels[depth] is v itself.  Only leaf sums start at
    0.0, which turns -0.0 + -0.0 into +0.0; averages of nonnegative leaves
    are never -0.0, so above the leaves 0.0 + x is x.  For m = 2^k a
    multiply by 2^-k stands in for the divide: x * 2^-k and x / 2^k are one
    real number, so they round alike, subnormals included.  Elementwise IEEE
    operations, so a row's bits depend neither on its batch nor on NumPy's
    CPU dispatch."""
    levels = [v]
    scale, by = (np.multiply, 1.0 / m) if not m & (m - 1) else (np.divide, m)
    for d in range(depth):
        below = levels[0]
        avg = below[..., ::m] + (below[..., 1::m] if d else 0.0)
        for j in range(2 if d else 1, m):
            avg += below[..., j::m]
        scale(avg, by, out=avg)
        levels.insert(0, avg)
    return levels


# parents per level (batch rows x width) from which leaf_maximal's strided
# np.maximum calls beat one broadcast: timed per level on a 2-vCPU x86 they
# lead from about 600 at m = 2 (1150 at m = 3, 3400 at m = 4); whole m = 2
# calls, depths 8-12 and 1-144 rows, vary by under 3% from 256 to 2048
_STRIDED_FROM = 512


def leaf_maximal(values, m: int, depth: int) -> np.ndarray:
    """Leaf values of the maximal function, vectorized over leading axes.

    values, nonnegative, has shape (..., m**depth); entry i of the result
    is the largest average of the input over the ancestors of leaf i, the
    float leaf values of dyadic.maximal_function bit for bit.  Each row of a
    batch is reduced exactly as it would be alone, so batching never
    changes a bit.  The running max goes down the levels, by one strided
    np.maximum per child on wide levels and one broadcast on narrow ones.
    """
    v = np.asarray(values, dtype=float)
    n = m**depth
    if v.shape[-1] != n:
        raise DomainError(f"last axis must have length {n}, got {v.shape[-1]}")
    if not depth:
        return v.copy()
    # a -0.0 leaf keeps its parent's +0.0, as under dyadic's strict >:
    # averages are never -0.0, so leaves made +0.0 tie with them
    levels = _levels(v + 0.0, m, depth)
    run = levels[0]
    for avg in levels[1:]:
        if run.size < _STRIDED_FROM:
            kids = avg.reshape(run.shape + (m,))
            np.maximum(run[..., None], kids, out=kids)
        else:
            for j in range(m):
                np.maximum(run, avg[..., j::m], out=avg[..., j::m])
        run = avg
    return run


def _objective(values, L: float, q: float, m: int, depth: int):
    """integral of max(M phi, L)^q and the unfloored leaf_maximal, per row."""
    mx = leaf_maximal(values, m, depth)
    # np.mean's summation and division, without its Python wrapper
    return np.add.reduce(np.maximum(mx, L) ** q, axis=-1) / mx.shape[-1], mx


def leaf_objective(values, L: float, q: float, m: int, depth: int):
    """integral of max(M phi, L)^q for leaf-value arrays (batch friendly)."""
    return _objective(values, L, q, m, depth)[0]


def _newton(fn, lo: float, hi: float, x: float, steps: int) -> float:
    """Root of an increasing fn on [lo, hi] by safeguarded Newton from x.

    fn(x) returns (value, slope), the value negative at lo and positive at
    hi.  Each value shrinks the bracket; a Newton step that leaves it, or a
    slope that is not positive, gives way to the midpoint.  A Newton step
    below 2^-36 |x| is taken and ends the search: fn's value there is off
    by about the step squared, at a simple root or a double one.  The
    search also ends at an exact root, once no float is left inside the
    bracket, or after steps values, at the last x valued.
    """
    for _ in range(steps):
        g, slope = fn(x)
        if g == 0.0:
            break
        if g < 0.0:
            lo = x
        else:
            hi = x
        if slope > 0.0:
            nxt = x - g / slope
            if abs(nxt - x) <= 2.0**-36 * abs(x):
                return nxt
            if lo < nxt < hi:
                x = nxt
                continue
        nxt = 0.5 * (lo + hi)
        if not lo < nxt < hi:
            break
        x = nxt
    return x


def project_to_moments(values, f: float, h: float, q: float) -> np.ndarray:
    """Rescale a nonnegative array as a*v**b so both moments match (f, h).

    The mass is eliminated through a = f / mean(v**b), and b solves the
    q-mass equation by _newton on a doubling bracket: its slope in b is q
    times the gap between the means of log v tilted by v**b and by v**(q b).
    All powers are taken in log space so large exponents cannot overflow,
    through math's exp and log so their bits do not depend on NumPy's
    CPU-dispatched loops.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1:
        raise DomainError("project_to_moments expects a 1-D array")
    if not np.all(np.isfinite(v)) or np.any(v < 0):
        raise DomainError("values must be finite and nonnegative")
    _check_fh(q, f, h)
    n = v.size
    if h >= f**q * (1.0 - 1e-12):
        return np.full(n, f)
    pos = v > 0
    npos = int(pos.sum())
    if npos == 0:
        raise InfeasibleStartError("cannot repair the zero function")
    ul = [math.log(x) for x in v[pos].tolist()]
    u = np.array(ul)
    logf, logh = math.log(f), math.log(h)

    def tilted(b):
        # log mean(v**b) over all n cells, and the mean of log v weighted by v**b
        t = b * u
        s = float(t.max())
        w = list(map(math.exp, (t - s).tolist()))
        total = _sum_in_order(w)
        return s + math.log(total / n), _sum_in_order(map(operator.mul, w, ul)) / total

    def deficit(b):
        # minus the q-mass excess, increasing in b, and its slope
        lm, em = tilted(b)
        lq, eq = tilted(q * b)
        return logh - lq - q * (logf - lm), q * (em - eq)

    # b -> 0 collapses positives to a constant: the largest q-mass this
    # family reaches is f^q * (npos/n)^(1-q)
    top = q * logf + (1.0 - q) * math.log(npos / n) - logh
    if top < 0:
        raise InfeasibleStartError(f"support fraction {npos}/{n} caps the q-mass below h")
    if u.max() - u.min() < 1e-13:
        # constant positives: b has no effect, feasible only if top == 0
        if abs(top) < 1e-12:
            out = np.zeros(n)
            out[pos] = f * n / npos
            return out
        raise InfeasibleStartError("constant start cannot move the q-mass")

    lo, hi = 0.0, 1.0
    while deficit(hi)[0] < 0:
        lo, hi = hi, 2.0 * hi
        if hi > 512.0:
            raise InfeasibleStartError("no exponent reaches the target q-mass")
    b = _newton(deficit, lo, hi, hi, 200)
    la = logf - tilted(b)[0]
    out = np.zeros(n)
    out[pos] = [math.exp(la + b * x) for x in ul]
    out *= f / out.mean()
    if abs(out.mean() - f) > 1e-10 * f:
        raise InfeasibleStartError("mass repair did not converge")
    if abs((out**q).mean() - h) > 1e-10 * h:
        raise InfeasibleStartError("q-mass repair did not converge")
    return out


@dataclass(frozen=True)
class SearchReport:
    params: BellmanParams
    m: int
    depth: int
    best_phi: StepFunction
    objective: float
    top_objective: float
    analytic_bound: float
    gap: float
    residual: float
    excess_k: float
    excess_a: float
    excess_b: float
    iterations: int
    seed: int
    restarts: int
    best_restart: int
    top_restart: int

    @property
    def gap_fraction(self) -> float:
        return self.gap / self.analytic_bound

    def to_json_obj(self) -> dict:
        obj = {fld.name: getattr(self, fld.name) for fld in fields(self)}
        obj["params"] = asdict(self.params)
        obj["gap_fraction"] = self.gap_fraction
        obj["best_phi"] = self.best_phi.to_json_obj(self.m)
        return obj


def _finish_report(vals, params, spec, iterations, seed, restarts,
                   best_restart, top=None) -> SearchReport:
    # top: the best greedy (objective, restart), else the report's own
    phi = StepFunction.from_leaf_values([float(x) for x in vals], spec)
    obj = float(leaf_objective(vals, params.L, params.q, spec.m, spec.depth))
    top_objective, top_restart = top or (obj, best_restart)
    bound = params.value
    res = eigen_residual(phi, params, spec)
    exc = excess_set(phi, params.L, spec, params.q)
    return SearchReport(
        params=params, m=spec.m, depth=spec.depth, best_phi=phi, objective=obj,
        top_objective=top_objective, analytic_bound=bound, gap=bound - obj,
        residual=res.total, excess_k=float(exc.measure), excess_a=float(exc.q_mass),
        excess_b=float(exc.mass), iterations=iterations, seed=seed, restarts=restarts,
        best_restart=best_restart, top_restart=top_restart)


# -- seeding ------------------------------------------------------------


def _seed_values(params: BellmanParams, spec: TreeSpec, ridx: int, rng) -> np.ndarray:
    """Raw start shape for one restart; moments are repaired afterwards.

    The shape is kind ridx % 6.  Kinds 0-3 put a decreasing profile on a
    left block standing in for the excess set, of measure near k0, and the
    flat level tau outside it: two-level, power-law with exponent near the
    predicted per-halving growth, geometric in the leaf index, and lognormal
    noise.  Kind 4 is a multiplicative cascade: random mass ratios drawn per
    tree node, which spreads spikes across parallel subtrees the way
    near-optimal shapes do.  Kind 5 runs parallel cascades: a random subset
    of the depth-D subtrees each get a profile growing geometrically block
    by block toward a spike on their first leaf, and the rest stay at tau.
    It halves blocks, so it assumes m = 2; on trees of fewer than 2m leaves
    it falls back to kind 3.  Powers are Python's, not NumPy's CPU-dispatched
    loops, so a shape's bits do not depend on the CPU.
    """
    n = spec.n_leaves
    tau = params.tau
    kk = params.k0
    K = min(n - 1, max(1, round(kk * n * math.exp(rng.gauss(0.0, 0.25)))))
    vals = np.full(n, tau)
    kind = ridx % 6
    if kind == 5 and n >= 2 * spec.m:
        # parallel cascades: a subset of depth-D subtrees each run their own
        # annulus profile, spikes spread across branches instead of one
        # prefix, remaining subtrees stay flat at tau
        maxd = 1
        while spec.m ** (maxd + 1) * 4 <= n and maxd < 4:
            maxd += 1
        D = rng.randrange(1, maxd + 1)
        nb = spec.m**D
        bs = n // nb
        g = rng.uniform(1.35, 1.9)
        spike = rng.uniform(2.5, 5.5)
        p_active = rng.uniform(0.3, 0.8)
        active = [s for s in range(nb) if rng.random() < p_active]
        if not active:
            active = [rng.randrange(nb)]
        for s in active:
            scale = params.L * math.exp(rng.gauss(0.0, 0.5))
            lo = s * bs
            width = bs
            level = 0
            while width > 1:
                width //= 2
                for j in range(width):
                    vals[lo + width + j] = scale * g**level
                level += 1
            vals[lo] = scale * g ** (level - 1) * spike
        return vals
    if kind == 4:
        sdev = rng.uniform(0.45, 1.1)
        damp = rng.uniform(0.0, 0.3)

        def rec(lo, hi, f, d):
            if hi - lo == 1:
                vals[lo] = f
                return
            block = (hi - lo) // spec.m
            gs = [math.exp(rng.gauss(0.0, sdev / (1.0 + damp * d)))
                  for _ in range(spec.m)]
            mean = _sum_in_order(gs) / spec.m
            for c in range(spec.m):
                rec(lo + c * block, lo + (c + 1) * block, f * gs[c] / mean, d + 1)

        rec(0, n, 1.0, 0)
        return vals
    if kind == 0:
        split = max(1, round(K * rng.uniform(0.1, 0.6)))
        hi = params.L * rng.uniform(1.5, 6.0)
        lo = params.L * rng.uniform(0.3, 1.0)
        vals[:split] = hi
        vals[split:K] = lo
    elif kind == 1:
        # tau underflows to 0 at tiny L and the power law overflows at
        # large L; its cells then stay at tau
        with contextlib.suppress(ZeroDivisionError, OverflowError):
            ratio = 1.0 / (2.0 * params.tau / params.L)
            alpha = math.log(max(ratio, 1.1), spec.m) * rng.uniform(0.8, 1.2)
            prof = [params.L * (K / n / ((i + 0.5) / n)) ** alpha for i in range(K)]
            if all(map(math.isfinite, prof)):
                vals[:K] = prof
    elif kind == 2:
        # cap the ratio so g**K stays finite on deep trees (the cap never
        # bites at depth <= 8, where K < 256)
        g = min(rng.uniform(1.2, 3.0), math.exp(700.0 / K))
        prof = np.array([g**e for e in range(K, 0, -1)])
        vals[:K] = params.L * prof / prof[-1]
    else:
        for i in range(K):
            vals[i] = tau * math.exp(rng.gauss(1.0, 1.0))
    if rng.random() < 0.3:
        vals[K:] *= rng.uniform(0.5, 1.0)
    return vals


# -- greedy local search ------------------------------------------------


def _require_feasible(params: BellmanParams, n: int) -> None:
    """Refuse h < f^q n^(q-1), the least mean of v^q (all mass in one cell),
    and data whose c^(1/q), or c^(1/q) times the largest cell value n f,
    overflows: the seeds and the defect scale cells by it."""
    f, h, q = params.f, params.h, params.q
    if h < f**q * n ** (q - 1.0) * (1.0 - 1e-12):
        raise DomainError(
            f"h = {h} is below f^q n^(q-1) = {f**q * n ** (q - 1.0)}: "
            f"no function on {n} cells has these moments"
        )
    root = params.eigenvalue_root  # raises DomainError where it overflows
    if root * (n * f) == math.inf:
        raise DomainError(f"c^(1/q) n f overflows a float: c^(1/q) = {root}, n f = {n * f}")


def _pair_targets(s1: float, s2: float, q: float):
    """(a, b) with a + b = s1, a^q + b^q = s2 and a <= b, or None.

    Solvable exactly when s1^q <= s2 <= 2^(1-q) s1^q, since a -> a^q +
    (s1-a)^q increases on [0, s1/2]; an s2 up to 1e-13 relative past either
    end takes that end.  It solves for y = a^q, the q-mass to match: near
    a = 0 a small error in a is a far larger one in a^q when q is small.
    g(y) = y + (s1 - y^(1/q))^q = s2 on [0, (s1/2)^q], where g is
    increasing and concave with slope 1 - (a/b)^(1-q), so _newton from
    y = 0 climbs to the root from below.  It takes at most 48 steps: near
    the top of the band the slope vanishes and Newton slows to linear.
    None also where the pair misses s2 by more than 1e-12 relative, as
    when a underflows.  Python floats: the same IEEE operations as numpy
    scalars, without their dispatch.
    """
    low = s1**q
    high = 2.0 ** (1.0 - q) * low
    if not (low * (1.0 - 1e-13) <= s2 <= high * (1.0 + 1e-13)):
        return None
    if s2 <= low:
        return 0.0, s1
    if s2 >= high:
        return 0.5 * s1, 0.5 * s1
    p = 1.0 / q

    def gap(y):
        # (a/b)^(1-q) = (a/b) (b^q/y): one power fewer
        a = y**p
        b = s1 - a
        bq = b**q
        return y + bq - s2, 1.0 - (a / b) * (bq / y)

    # start from the first Newton step from y = 0, where g = low - s2 and
    # the slope is 1; y^(1/q) may round a little past s1/2
    a = min(_newton(gap, 0.0, 0.5 * high, s2 - low, 48) ** p, 0.5 * s1)
    b = s1 - a
    # at small q, y^(1/q) may underflow and a lose its share of the q-mass
    return (a, b) if abs(a**q + b**q - s2) <= 1e-12 * s2 else None


def _three_cell_targets(vi, vj, vk, t, q):
    """New (a, b) for cells j, k after cell i moves to t, or None: the
    _pair_targets that keep both the mass and the q-mass of the three."""
    s1 = vi + vj + vk - t
    if s1 < 0:
        return None
    s2 = vi**q + vj**q + vk**q - t**q
    if s1 == 0.0:
        return (0.0, 0.0) if abs(s2) < 1e-15 else None
    return _pair_targets(s1, s2, q)


def _moved_averages(levels, cells, new, L: float, m: int):
    """(level, index, value) for each entry of levels (_levels of the leaf
    array) that setting leaves cells to new rewrites, or None unless every
    moved cell and every ancestor of one is below L before and after: each
    ancestor recomputed from its children in _levels' order.  Passing keeps
    max(M phi, L) and its < L mask bit for bit, since every other average
    is unchanged and no running max at or above L comes from an entry below
    L.  On cells below the floor the test is exact: a new value or average
    at or above L lifts the moved cell beneath it to the floor."""
    changes, row = [], dict(zip(cells, new))
    for d in range(len(levels) - 1, -1, -1):
        level = levels[d]
        for c, t in row.items():
            if not (level.item(c) < L and t < L):
                return None
            changes.append((level, c, t))
        if d:
            parents = {c // m: 0.0 for c in row}
            for p in parents:
                for c in range(p * m, (p + 1) * m):
                    parents[p] += row[c] if c in row else level.item(c)
                parents[p] /= m
            row = parents
    return changes


def _consolidate_tail(vals, params, spec):
    """Deterministic post-pass parking below-floor cells at the flat level.

    Off the excess set the objective ignores the cell values, so the greedy
    loop leaves arbitrary left-overs there; the extremality defect does not
    ignore them, charging |L - c^(1/q) v|^q per cell.  With q < 1 that
    penalty shrinks under concentration (sum |d_i|^q drops when scattered
    errors merge into few cells), so each sweep sets below-floor cells to
    tau exactly and routes the two-moment correction into two reservoir
    cells.  Only moves _moved_averages passes are taken: they keep
    max(M phi, L) and its < L mask bit for bit, so the objective never
    changes and the defect changes only in the three moved cells.  The
    tail keeps the levels of vals and writes back the few entries each
    taken move rewrites.  Each cell takes the (pair, orientation) that
    lowers the defect most, if any does.  Returns (objective, defect, vals).
    """
    m, depth, n = spec.m, spec.depth, spec.n_leaves
    q, L, root, tau = params.q, params.L, params.eigenvalue_root, params.tau
    obj, mx = _objective(vals, L, q, m, depth)
    levels = _levels(vals, m, depth)
    slack = np.flatnonzero(mx < L)

    def term(v):
        # a below-floor cell's share of the defect, times n
        return abs(L - root * v) ** q

    # taken moves keep the < L mask, so every sweep has the same slack
    for _ in range(2 if slack.size >= 3 else 0):
        order = slack[np.argsort(-vals[slack], kind="stable")].tolist()
        # reservoir pairs: removing mass wants two heavy cells, adding mass
        # wants a lopsided pair to stay inside the solvability band
        # s1^q <= s2 <= 2^(1-q) s1^q
        pairs = ((order[0], order[1]), (order[0], order[-1]), (order[-2], order[-1]))
        changed = False
        for i in slack.tolist():
            if vals[i] == tau:
                continue
            best, move = 0.0, None
            for r1, r2 in pairs:
                if i == r1 or i == r2:
                    continue
                sol = _three_cell_targets(vals.item(i), vals.item(r1), vals.item(r2), tau, q)
                if sol is None:
                    continue
                a, b = sol
                gain = (term(vals.item(i)) + term(vals.item(r1)) + term(vals.item(r2))
                        - term(tau) - term(a) - term(b))
                if gain <= best:
                    continue
                # both orientations change the defect alike: take the first passed
                for a, b in (sol, sol[::-1]):
                    moved = _moved_averages(levels, (i, r1, r2), (tau, a, b), L, m)
                    if moved is not None:
                        best, move = gain, moved
                        break
            if move is not None:
                for level, c, t in move:  # levels[depth] is vals itself
                    level[c] = t
                changed = True
        if not changed:
            break
    return float(obj), float((np.abs(np.maximum(mx, L) - root * vals) ** q).sum() / n), vals


# 53-bit words per row, one row per greedy proposal, and rows per
# getrandbits call; consecutive calls concatenate, so no row depends on
# _REFILL.  A word times _UNIT is a float in [0, 1), as from random.random
_ROW = 8
_REFILL = 64
_UNIT = 2.0**-53


def _rows(rng: random.Random, count: int) -> list:
    """count rows of _ROW words below 2^53, drawn from rng: the top 53 bits
    of each 64-bit word, read little-endian since getrandbits puts the first
    word drawn lowest on either byte order."""
    size = 8 * _ROW * count
    words = np.frombuffer(rng.getrandbits(8 * size).to_bytes(size, "little"), "<u8")
    return (words >> 11).tolist()


def _distinct(words, at: int, count: int, n: int) -> list:
    """Distinct indices below n, one per 53-bit word of words[at:at + count]:
    the t-th ranges over the n - t values not yet taken, in increasing order."""
    out, taken = [], []  # taken: out in increasing order
    for t in range(count):
        x, pos = (words[at + t] * (n - t)) >> 53, 0
        while pos < t and taken[pos] <= x:
            x, pos = x + 1, pos + 1
        taken.insert(pos, x)
        out.append(x)
    return out


def _cells(words, at: int, n: int, slack: list):
    """Cells [i, j, k] of a three-cell move from words 1-4 of the row at
    words[at], or None.  If slack, the cells below the floor, holds two,
    word 1 sends 60% of moves there for j and k, with i anywhere (None if
    it hits one)."""
    if len(slack) >= 2 and words[at + 1] * _UNIT < 0.6:
        i = (words[at + 2] * n) >> 53
        j, k = map(slack.__getitem__, _distinct(words, at + 3, 2, len(slack)))
        return None if i == j or i == k else [i, j, k]
    return _distinct(words, at + 2, 3, n)


# candidate rows per window: at depth 8 _objective costs a lone row 6x its
# share of an 8-row call (92 vs 14 us, 2-vCPU x86); wider windows waste rows
_WINDOW_ROWS = 8
# leaf values per lockstep batch: all 16 restarts at depth 8, one from 12
_BATCH_VALUES = 2**16


def _run_restart(params, spec, ridx, seed, budget, start=None):
    """One greedy chain of budget proposals, as a generator.

    It yields each batch of leaf arrays to score, the start first, and is
    sent _objective of that batch; it returns (objective, values), or None
    if no start is feasible.  start, if given, is a raw leaf array used
    instead of the built-in seed shapes (still moment-repaired first).

    The seed shapes draw from rng itself; after them proposal p decodes row
    p of the chain's random rows (_rows), read in place in the word list,
    against fv, the values as Python floats, rebuilt on each accept.
    Proposals are scored speculatively, about _WINDOW_ROWS candidate rows
    per window, and visited in order; the first accept drops the rest of
    its window, and the next window starts at the row after it, rows drawn
    past it kept.  A window stages its moves as (flat index, value) writes
    and block sorts; its batch is one broadcast of vals, one scatter of the
    writes, then the sorts.  Batch rows reduce as if alone and nothing a
    proposal reads changes before an accept, so the trajectory is that of
    scoring each proposal alone, whatever the window.
    """
    rng = random.Random(f"{seed}:{ridx}:bklab-search")
    m, depth, n = spec.m, spec.depth, spec.n_leaves
    q, L = params.q, params.L
    f, h = params.f, params.h

    shapes = [start] if start is not None else (
        _seed_values(params, spec, ridx + attempt, rng) for attempt in range(6))
    for raw in shapes:
        try:
            vals = project_to_moments(raw, f, h, q)
            break
        except InfeasibleStartError:
            continue
    else:
        # no built-in shape repairs (tau may underflow to 0, leaving one
        # positive cell): two cells carry both moments, the rest are 0; h
        # may sit within _require_feasible's slack below (n f)^q / n
        pair = None
        if start is None and n * h <= 2.0 ** (1.0 - q) * (n * f) ** q:
            pair = _pair_targets(n * f, max(n * h, (n * f) ** q), q)
        if pair is None:
            return None
        vals = np.zeros(n)
        vals[1], vals[0] = pair

    objs, mxs = yield vals[None]
    cur, cur_mx = float(objs[0]), mxs[0].copy()
    fv = vals.tolist()  # vals as Python floats; rebuilt after an accept
    slack = None  # cells of cur_mx at or below the floor; rebuilt after an accept
    tau = params.tau

    def propose(at, row):
        """Stage the move the row of words at words[at] asks for from cand
        row `row` on; return the rows it takes: 2 for a three-cell move (both
        orientations of (a, b)), 1 for a swap or a block sort, 0 for none."""
        nonlocal slack
        r = words[at] * _UNIT
        if n >= 3 and r < 0.55:
            # below the floor the objective ignores the values, so such
            # cells absorb moment corrections for free
            if slack is None:
                slack = np.flatnonzero(cur_mx <= L).tolist()
            cells = _cells(words, at, n, slack)
            if cells is None:
                return 0
            i, j, k = cells
            vi = fv[i]
            style = words[at + 5] * _UNIT
            if style < 0.25:
                t = 0.0
            elif style < 0.4:
                t = tau
            elif style < 0.5:
                t = fv[j]
            else:
                # a standard normal from words 6 and 7, as random.gauss has it
                z = (math.cos(words[at + 6] * _UNIT * math.tau)
                     * math.sqrt(-2.0 * math.log(1.0 - words[at + 7] * _UNIT)))
                t = vi * math.exp(z * 0.7) if vi > 0 else f * math.exp(z)
            sol = _three_cell_targets(vi, fv[j], fv[k], t, q)
            if sol is None:
                return 0
            a, b = sol
            r0, r1 = row * n, (row + 1) * n
            edit_at.extend((r0 + i, r0 + j, r0 + k, r1 + i, r1 + j, r1 + k))
            edit_to.extend((t, a, b, t, b, a))
            return 2
        if r < 0.85:
            i, j = _distinct(words, at + 2, 2, n)
            if fv[i] == fv[j]:
                return 0
            edit_at.extend((row * n + i, row * n + j))
            edit_to.extend((fv[j], fv[i]))
            return 1
        d = 1 + ((words[at + 1] * depth) >> 53)
        block = m ** (depth - d)
        idx = (words[at + 2] * m**d) >> 53
        sorts.append((row, slice(idx * block, (idx + 1) * block)))
        return 1

    cand = np.empty((_WINDOW_ROWS + 1, n))
    flat = cand.reshape(-1)
    words, p = [], 0  # words starts with row p, the next proposal's
    while p < budget:
        # staged: (proposals read up to and including it, its row, its last
        # row), the last winning only if strictly better; the window's flat
        # indices into cand and their values, and its (row, block) sorts
        staged, edit_at, edit_to, sorts = [], [], [], []
        rows = read = 0
        while rows < _WINDOW_ROWS and p + read < budget:
            if len(words) == _ROW * read:
                words += _rows(rng, _REFILL)
            took = propose(_ROW * read, rows)
            read += 1
            if took:
                staged.append((read, rows, rows + took - 1))
                rows += took
        cand[:rows] = vals
        flat[edit_at] = edit_to
        for row, block in sorts:
            cand[row, block] = np.sort(vals[block])[::-1]
        objs, mxs = yield cand[:rows]
        objs = objs.tolist()
        for upto, row, last in staged:
            row = last if objs[last] > objs[row] else row
            if objs[row] > cur:
                read = upto
                vals[:] = cand[row]
                fv = vals.tolist()
                # a copy: a view would keep the whole batch alive
                cur, cur_mx, slack = objs[row], mxs[row].copy(), None
                break
        del words[:_ROW * read]
        p += read
    return cur, vals


def _lockstep(chains, L: float, q: float, m: int, depth: int) -> list:
    """Run _run_restart chains to their results, scoring the windows of all
    live chains in one _objective call per round."""
    out, sent = [None] * len(chains), dict.fromkeys(range(len(chains)))
    while sent:
        live = {}
        for i, scores in sent.items():
            try:
                live[i] = chains[i].send(scores)  # None starts a chain
            except StopIteration as stop:
                out[i] = stop.value
        if not live:
            break
        objs, mxs = _objective(np.concatenate(list(live.values())), L, q, m, depth)
        at, sent = 0, {}
        for i, window in live.items():
            sent[i] = objs[at:at + len(window)], mxs[at:at + len(window)]
            at += len(window)
    return out


_SELECT_REL_TOL = 5e-3


def local_search(params: BellmanParams, spec: TreeSpec, seed: int = 0,
                 budget: int = 20000, restarts: int = 16,
                 extra_seeds=None) -> SearchReport:
    """Multi-start greedy maximization of the truncated maximal objective.

    budget counts move proposals per restart.  extra_seeds, if given, is a
    list of leaf-value arrays injected as additional restarts (used by the
    convergence study to warm-start from a coarser depth).  Restarts run in
    lockstep groups of up to _BATCH_VALUES leaf values; top_objective and
    top_restart report the best greedy objective.

    Near-extremality has two certificates: the objective's distance to the
    analytic bound and the eigen-style extremality defect.  Restarts whose
    objectives agree to within half a percent are below the searcher's
    resolution, so among those the reported winner is the one with the
    smallest defect (ties break to the lowest restart index).  Only those
    restarts run the tail, which lowers the defect and keeps the objective.
    """
    if budget <= 0:
        raise DomainError(f"budget must be positive, got {budget}")
    if restarts <= 0:
        raise DomainError(f"restarts must be positive, got {restarts}")
    _require_feasible(params, spec.n_leaves)
    f, h, q = params.f, params.h, params.q

    if h >= f**q * (1.0 - 1e-12):
        # Hoelder equality pins phi to the constant f
        vals = np.full(spec.n_leaves, float(f))
        return _finish_report(vals, params, spec, 0, seed, restarts, 0)

    starts = [np.asarray(e, dtype=float) for e in (extra_seeds or [])]
    starts += [None] * restarts
    group = max(1, _BATCH_VALUES // ((_WINDOW_ROWS + 1) * spec.n_leaves))
    chains = [_run_restart(params, spec, ridx, seed, budget, start)
              for ridx, start in enumerate(starts)]
    done = [out for lo in range(0, len(chains), group)
            for out in _lockstep(chains[lo:lo + group], params.L, q, spec.m, spec.depth)]
    kept = [(ridx, out) for ridx, out in enumerate(done) if out is not None]
    if not kept:
        raise InfeasibleStartError(f"no restart found a feasible start at depth {spec.depth}")
    top_ridx, (top, _) = max(kept, key=lambda row: row[1][0])
    floor = top * (1.0 - _SELECT_REL_TOL)
    # the tail returns its input's objective, so only the band needs it
    best_ridx, (_, _, best_vals) = min(
        ((ridx, _consolidate_tail(vals, params, spec))
         for ridx, (obj, vals) in kept if obj >= floor),
        key=lambda row: (row[1][1], row[0]),
    )
    return _finish_report(best_vals, params, spec, budget * len(kept), seed,
                          len(starts), best_ridx, top=(top, top_ridx))


# -- exhaustive oracle at toy sizes -------------------------------------

_MAX_ORACLE_CELLS = 16
_MAX_ORACLE_GRID = 12
_MAX_ORACLE_PATTERNS = 30_000_000


def brute_force_oracle(params: BellmanParams, spec: TreeSpec, grid: int = 8) -> SearchReport:
    """Exhaustive search over quantized value patterns at toy resolutions.

    Every pattern over a fixed ratio palette is scaled to mass f; patterns
    whose q-mass lands within the band f^q / (2 grid) of h are evaluated and
    the best is moment-repaired exactly and reported.  Guards refuse sizes
    where the enumeration count explodes.
    """
    n = spec.n_leaves
    if n > _MAX_ORACLE_CELLS:
        raise ComplexityGuardError(f"{n} cells exceed the oracle limit {_MAX_ORACLE_CELLS}")
    if grid < 2:
        raise DomainError(f"grid must have at least 2 levels, got {grid}")
    if grid > _MAX_ORACLE_GRID:
        raise ComplexityGuardError(f"grid {grid} exceeds the oracle limit {_MAX_ORACLE_GRID}")
    combos = grid**n
    if combos > _MAX_ORACLE_PATTERNS:
        raise ComplexityGuardError(
            f"{combos} patterns exceed the enumeration limit {_MAX_ORACLE_PATTERNS}"
        )
    _require_feasible(params, n)
    f, h, q, L = params.f, params.h, params.q, params.L
    band = f**q / (2.0 * grid)

    if h >= f**q * (1.0 - 1e-12):
        vals = np.full(n, float(f))
        return _finish_report(vals, params, spec, 0, 0, 1, 0)

    if n == 2:
        # the exact feasible set: x + y = 2f with (x^q + y^q)/2 = h; h may
        # sit within _require_feasible's slack below the curve's floor at
        # x = 2f, so it is clamped there
        pair = _pair_targets(2.0 * f, max(2.0 * h, (2.0 * f) ** q), q)
        if pair is None:
            raise InfeasibleStartError("the smaller of the two cells underflows")
        vals = np.array(pair[::-1])
        return _finish_report(vals, params, spec, 1, 0, 1, 0)

    levels = np.concatenate([[0.0], np.geomspace(1.0, 128.0, grid - 1)])
    radix = grid ** np.arange(n, dtype=np.int64)
    best_obj = -math.inf
    best_vals = None
    rows = max(1, 2_000_000 // n)
    for startid in range(0, combos, rows):
        ids = np.arange(startid, min(startid + rows, combos), dtype=np.int64)
        pat = levels[(ids[:, None] // radix) % grid]
        means = pat.mean(axis=1)
        ok = means > 0
        if not ok.any():
            continue
        a = np.zeros_like(means)
        a[ok] = f / means[ok]
        qmass = a**q * (pat**q).mean(axis=1)
        feas = ok & (np.abs(qmass - h) <= band)
        if not feas.any():
            continue
        scaled = a[feas, None] * pat[feas]
        objs = leaf_objective(scaled, L, q, spec.m, spec.depth)
        j = int(np.argmax(objs))
        if objs[j] > best_obj:
            best_obj = float(objs[j])
            best_vals = scaled[j].copy()
    if best_vals is None:
        raise InfeasibleStartError(f"no quantized pattern reaches the q-mass band of width {band}")
    vals = project_to_moments(best_vals, f, h, q)
    return _finish_report(vals, params, spec, combos, 0, 1, 0)


# -- convergence study --------------------------------------------------

STUDY_CSV_HEADER = "N,objective,bound,gap,residual,k,B_over_k"


def study_to_csv(reports) -> str:
    lines = [STUDY_CSV_HEADER]
    for r in reports:
        bok = r.excess_b / r.excess_k if r.excess_k > 0 else math.nan
        lines.append(
            f"{r.depth},{r.objective:.17g},{r.analytic_bound:.17g},"
            f"{r.gap:.17g},{r.residual:.17g},{r.excess_k:.17g},{bok:.17g}"
        )
    return "\n".join(lines) + "\n"


def convergence_study(params: BellmanParams, depths, seed: int = 0,
                      budget: int = 20000, restarts: int = 16,
                      m: int = 2) -> list[SearchReport]:
    """local_search per depth, warm-starting each depth from the previous best.

    The warm start replays the coarser optimum on the finer tree, which keeps
    the gap column nonincreasing by construction; gap and residual trends are
    asserted with 10% slack and a violation raises ConvergenceError.
    """
    depths = list(depths)
    if not depths:
        raise DomainError("depths must be nonempty")
    if any(b <= a for a, b in zip(depths, depths[1:])):
        raise DomainError("depths must be strictly ascending")
    reports: list[SearchReport] = []
    for depth in depths:
        spec = TreeSpec(m, depth)
        # the coarser optimum is aligned to every finer grid: its leaf values there repeat
        extra = [reports[-1].best_phi.leaf_values(spec)] if reports else None
        rep = local_search(params, spec, seed=seed, budget=budget,
                           restarts=restarts, extra_seeds=extra)
        for name in ("gap", "residual") if reports else ():
            old, new = getattr(reports[-1], name), getattr(rep, name)
            if new > old * 1.10 + 1e-12:
                raise ConvergenceError(f"{name} rose from {old} at depth "
                                       f"{reports[-1].depth} to {new} at depth {depth}")
        reports.append(rep)
    return reports
