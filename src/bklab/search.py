"""Constrained maximization of the truncated maximal-function objective.

Maximizes integral of max(M phi, L)^q over leaf-aligned step functions with
both moments pinned: integral phi = f and integral phi^q = h.  The analytic
value h*c is an upper bound, so bound minus objective is a certified
optimality gap.  The optimizer is greedy multi-start local search; the core
move rewrites three cells, one freely and the other two by 1-D root-finding
so that both moments are restored exactly.  Swap and block-sort moves, which
preserve the moments trivially, speed up the combinatorial packing part.

Restarts are independent, each seeded from (seed, restart index), so reports
are reproducible for a fixed seed.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import asdict, dataclass, fields

import numpy as np

from .dyadic import StepFunction, TreeSpec, excess_set
from .errors import (
    ComplexityGuardError,
    ConvergenceError,
    DomainError,
    InfeasibleStartError,
)
from .kernel import BellmanParams, _bisect, _check_fh
from .transforms import eigen_residual


def leaf_maximal(values, m: int, depth: int) -> np.ndarray:
    """Leaf values of the maximal function, vectorized over leading axes.

    values has shape (..., m**depth); entry i of the result is the largest
    average of the input over the ancestors of leaf i.  Each row of a batch
    is reduced exactly as it would be alone, so batching never changes a bit.
    """
    v = np.asarray(values, dtype=float)
    n = m**depth
    if v.shape[-1] != n:
        raise DomainError(f"last axis must have length {n}, got {v.shape[-1]}")
    out = np.full(v.shape, -np.inf)
    for d in range(depth):
        # np.mean's own summation and division, without its Python wrapper
        shape = v.shape[:-1] + (m**d, m ** (depth - d))
        avg = np.add.reduce(v.reshape(shape), axis=-1)
        np.true_divide(avg, shape[-1], out=avg)
        blocks = out.reshape(shape)
        np.maximum(blocks, avg[..., None], out=blocks)
    # a leaf is its own one-cell block: summing it and dividing by 1 only
    # turns -0.0 into 0.0, which adding 0.0 does too
    return np.maximum(out, v + 0.0, out=out)


def _objective(values, L: float, q: float, m: int, depth: int):
    """integral of max(M phi, L)^q and the unfloored leaf_maximal, per row."""
    mx = leaf_maximal(values, m, depth)
    # np.mean's summation and division, without its Python wrapper
    return np.add.reduce(np.maximum(mx, L) ** q, axis=-1) / mx.shape[-1], mx


def leaf_objective(values, L: float, q: float, m: int, depth: int):
    """integral of max(M phi, L)^q for leaf-value arrays (batch friendly)."""
    return _objective(values, L, q, m, depth)[0]


def project_to_moments(values, f: float, h: float, q: float) -> np.ndarray:
    """Rescale a nonnegative array as a*v**b so both moments match (f, h).

    The exponent b is found by bisection on the q-mass after the mass has
    been eliminated through a = f / mean(v**b); all powers are taken in log
    space so large exponents cannot overflow.
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
    u = np.log(v[pos])
    logf, logh = math.log(f), math.log(h)

    def log_mean_pow(t):
        s = t.max()
        return s + math.log(np.exp(t - s).sum() / n)

    def excess(b):
        lm = log_mean_pow(b * u)
        lq = log_mean_pow(q * b * u)
        return q * (logf - lm) + lq - logh

    # b -> 0 collapses positives to a constant: the largest q-mass this
    # family reaches is f^q * (npos/n)^(1-q)
    top = q * logf + (1.0 - q) * math.log(npos / n) - logh
    if top < 0:
        raise InfeasibleStartError(
            f"support fraction {npos}/{n} caps the q-mass below h"
        )
    if u.max() - u.min() < 1e-13:
        # constant positives: b has no effect, feasible only if top == 0
        if abs(top) < 1e-12:
            out = np.zeros(n)
            out[pos] = f * n / npos
            return out
        raise InfeasibleStartError("constant start cannot move the q-mass")

    lo, glo = 0.0, top
    hi = 1.0
    ghi = excess(hi)
    while ghi > 0:
        lo, glo = hi, ghi
        hi *= 2.0
        if hi > 512.0:
            raise InfeasibleStartError("no exponent reaches the target q-mass")
        ghi = excess(hi)
    # not kernel._bracket, which would stop at an exact zero of excess
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if excess(mid) >= 0:
            lo = mid
        else:
            hi = mid
    b = 0.5 * (lo + hi)
    la = logf - log_mean_pow(b * u)
    out = np.zeros(n)
    out[pos] = np.exp(la + b * u)
    out *= f / out.mean()
    if abs(out.mean() - f) > 1e-10 * max(1.0, f):
        raise InfeasibleStartError("mass repair did not converge")
    if abs((out**q).mean() - h) > 1e-10 * max(1.0, h):
        raise InfeasibleStartError("q-mass repair did not converge")
    return out


@dataclass(frozen=True)
class SearchReport:
    params: BellmanParams
    m: int
    depth: int
    best_phi: StepFunction
    objective: float
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
    elapsed_seconds: float

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
                   best_restart, t0) -> SearchReport:
    phi = StepFunction.from_leaf_values([float(x) for x in vals], spec)
    obj = float(leaf_objective(vals, params.L, params.q, spec.m, spec.depth))
    bound = params.value
    res = eigen_residual(phi, params, spec)
    exc = excess_set(phi, params.L, spec, params.q)
    return SearchReport(
        params=params,
        m=spec.m,
        depth=spec.depth,
        best_phi=phi,
        objective=obj,
        analytic_bound=bound,
        gap=bound - obj,
        residual=res.total,
        excess_k=float(exc.measure),
        excess_a=float(exc.q_mass),
        excess_b=float(exc.mass),
        iterations=iterations,
        seed=seed,
        restarts=restarts,
        best_restart=best_restart,
        elapsed_seconds=time.perf_counter() - t0,
    )


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
    it falls back to kind 3.
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
            mean = sum(gs) / spec.m
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
        ratio = 1.0 / (2.0 * params.tau / params.L)
        alpha = math.log(max(ratio, 1.1), spec.m) * rng.uniform(0.8, 1.2)
        x = (np.arange(K) + 0.5) / n
        vals[:K] = params.L * (K / n / x) ** alpha
    elif kind == 2:
        # cap the ratio so g**K stays finite on deep trees (the cap never
        # bites at depth <= 8, where K < 256)
        g = min(rng.uniform(1.2, 3.0), math.exp(700.0 / K))
        prof = g ** np.arange(K, 0, -1, dtype=float)
        vals[:K] = params.L * prof / prof[-1]
    else:
        for i in range(K):
            vals[i] = tau * math.exp(rng.gauss(1.0, 1.0))
    if rng.random() < 0.3:
        vals[K:] *= rng.uniform(0.5, 1.0)
    return vals


# -- greedy local search ------------------------------------------------


def _require_feasible(params: BellmanParams, n: int) -> None:
    """Refuse h < f^q n^(q-1), the least mean of v^q (all mass in one cell)."""
    f, h, q = params.f, params.h, params.q
    if h < f**q * n ** (q - 1.0) * (1.0 - 1e-12):
        raise DomainError(
            f"h = {h} is below f^q n^(q-1) = {f**q * n ** (q - 1.0)}: "
            f"no function on {n} cells has these moments"
        )


def _three_cell_targets(vi, vj, vk, t, q):
    """New (a, b) for cells j, k after cell i moves to t, or None.

    Solves a + b = s1, a^q + b^q = s2 with a <= b; solvable exactly when
    s1^q <= s2 <= 2^(1-q) s1^q since a -> a^q + (s1-a)^q increases on
    [0, s1/2].  Works in Python floats: the same IEEE operations as on
    numpy scalars, without their dispatch cost in the bisection.
    """
    vi, vj, vk, t = float(vi), float(vj), float(vk), float(t)
    s1 = vi + vj + vk - t
    if s1 < 0:
        return None
    s2 = vi**q + vj**q + vk**q - t**q
    if s1 == 0.0:
        return (0.0, 0.0) if abs(s2) < 1e-15 else None
    low = s1**q
    high = 2.0 ** (1.0 - q) * low
    if not (low - 1e-13 <= s2 <= high + 1e-13):
        return None
    if s2 <= low:
        return 0.0, s1
    if s2 >= high:
        return 0.5 * s1, 0.5 * s1
    lo, hi = 0.0, 0.5 * s1
    # a fixed 48 steps, not kernel._bisect's run to float exhaustion
    for _ in range(48):
        mid = 0.5 * (lo + hi)
        if mid**q + (s1 - mid) ** q < s2:
            lo = mid
        else:
            hi = mid
    a = 0.5 * (lo + hi)
    return a, s1 - a


def _headroom(vals, L: float, m: int, depth: int) -> np.ndarray:
    """Per leaf, the least L |A| - sum_A vals over its strict ancestors A."""
    out = np.full(vals.shape, np.inf)
    for d in range(depth):
        size = m ** (depth - d)
        room = L * size - np.add.reduce(vals.reshape(m**d, size), axis=-1)
        blocks = out.reshape(m**d, size)
        np.minimum(blocks, room[:, None], out=blocks)
    return out


# _floor_fixed's rounding margin, in units of L n^2
_ROUNDING = 4.0 * np.finfo(float).eps


def _floor_fixed(vals, mx, room, moves, L: float) -> bool:
    """Whether each move provably leaves max(M phi, L) as it is, bit for bit.

    A move is a (cells, new) pair setting vals[cells] = new.  mx must have
    the < L mask of leaf_maximal(vals), and room is _headroom(vals).  Every
    changed cell is below the floor in mx, so every block holding one
    averages below L; each new value is below L, and the mass moved in (its
    positive part) fits under the least headroom of the cells' ancestors,
    so those blocks still average below L.  Every other block is the same
    data reduced the same way, so max(M phi, L) keeps every bit and the
    < L mask of M phi does not change either.

    The margin covers rounding: numpy sums k nonnegative values, in any
    order, to within (k - 1) 2^-53 of their sum, and every block sum here
    (before the move, after it, and the L |A| it is compared with) is at
    most about L n; 4 eps L n^2 covers the three of them with room left
    for the last rounding of the average below L.
    """
    margin = _ROUNDING * L * len(vals) ** 2
    for cells, new in moves:
        moved_in, least = 0.0, math.inf
        for c, t in zip(cells, new):
            if not (mx.item(c) < L and t < L):
                return False
            v, r = vals.item(c), room.item(c)
            if t > v:
                moved_in += t - v
            if r < least:
                least = r
        if not moved_in < least - margin:
            return False
    return True


def _consolidate_tail(vals, params, spec):
    """Deterministic post-pass parking below-floor cells at the flat level.

    Off the excess set the objective ignores the cell values, so the greedy
    loop leaves arbitrary left-overs there; the extremality defect does not
    ignore them, charging |L - c^(1/q) v|^q per cell.  With q < 1 that
    penalty shrinks under concentration (sum |d_i|^q drops when scattered
    errors merge into few cells), so each sweep sets below-floor cells to
    tau exactly and routes the two-moment correction into two fixed
    reservoir cells.  A move is kept only if the objective does not drop
    and the defect strictly drops.  Returns (objective, defect, vals).

    A cell's candidate batch that _floor_fixed certifies keeps the objective
    bit for bit, so it is scored by its defect alone against the current
    floor, and mx is carried over: its < L mask and its values >= L, all the
    pass reads of it, stay exact.  Other batches are scored in full.
    """
    m, depth, n = spec.m, spec.depth, spec.n_leaves
    q, L = params.q, params.L
    root = params.eigenvalue_root
    tau = params.tau
    w = 1.0 / n

    def residual(floor, v):
        return (np.abs(floor - root * v) ** q).sum(axis=-1) * w

    def score(v):
        obj, mx = _objective(v, L, q, m, depth)
        return obj, residual(np.where(mx >= L, mx, L), v), mx

    cur_obj, cur_res, mx = score(vals)
    cur_obj, cur_res = float(cur_obj), float(cur_res)
    floor = np.where(mx >= L, mx, L)
    room = _headroom(vals, L, m, depth)
    for _ in range(2):
        slack = np.flatnonzero(mx < L)
        if slack.size < 3:
            break
        order = slack[np.argsort(-vals[slack], kind="stable")]
        # candidate reservoir pairs: removing mass wants two heavy cells,
        # adding mass wants a lopsided pair to stay inside the solvability
        # band s1^q <= s2 <= 2^(1-q) s1^q
        pairs = [(int(order[0]), int(order[1]))]
        if order.size >= 3:
            pairs.append((int(order[0]), int(order[-1])))
            pairs.append((int(order[-2]), int(order[-1])))
        changed = False
        for i in slack:
            i = int(i)
            if vals[i] == tau:
                continue
            # every (pair, orientation) candidate for cell i, scored in one
            # batch and then visited in order
            moves = []
            for r1, r2 in pairs:
                if i == r1 or i == r2:
                    continue
                sol = _three_cell_targets(vals[i], vals[r1], vals[r2], tau, q)
                if sol is None:
                    continue
                a, b = sol
                moves.append((r1, r2, a, b))
                moves.append((r1, r2, b, a))
            if not moves:
                continue
            cand = np.tile(vals, (len(moves), 1))
            cand[:, i] = tau
            for row, (r1, r2, aa, bb) in enumerate(moves):
                cand[row, r1], cand[row, r2] = aa, bb
            # the reservoirs were picked at the start of the sweep and may
            # have left the slack since, so the certificate reads today's mx
            fixed = _floor_fixed(vals, mx, room, (((i, r1, r2), (tau, aa, bb))
                                                  for r1, r2, aa, bb in moves), L)
            if fixed:
                objs, ress = np.full(len(moves), cur_obj), residual(floor, cand)
            else:
                objs, ress, mxs = score(cand)
            best = None
            for row in range(len(moves)):
                obj, res = float(objs[row]), float(ress[row])
                if obj >= cur_obj - 1e-12 and res < cur_res - 1e-15:
                    if best is None or res < best[1]:
                        best = (obj, res, row)
            if best is not None:
                cur_obj, cur_res, row = best
                r1, r2, aa, bb = moves[row]
                vals[i], vals[r1], vals[r2] = tau, aa, bb
                if not fixed:
                    mx = mxs[row]
                    floor = np.where(mx >= L, mx, L)
                room = _headroom(vals, L, m, depth)
                changed = True
        if not changed:
            break
    return cur_obj, cur_res, vals


# candidate rows per leaf_maximal call in the greedy loop: at depth 8 a lone
# row costs 4x its share of an 8-row batch; wider windows waste more rows
_WINDOW_ROWS = 8


def _run_restart(params, spec, ridx, seed, budget, start=None):
    """One greedy chain of budget proposals; (objective, defect, values) or None.

    start, if given, is a raw leaf array used instead of the built-in seed
    shapes (still moment-repaired first).  defect is the float extremality
    residual of the consolidated values, used by the restart selection.

    Proposals are scored speculatively, about _WINDOW_ROWS candidate rows
    per leaf_maximal call, and visited in draw order; the first accept drops
    the rest of its window.  Trajectories match one-at-a-time scoring bit
    for bit: batch rows reduce as if alone, nothing a draw or a candidate
    depends on changes before an accept, and an accept rewinds rng to the
    window's start and replays the draws up to the accepted proposal.
    """
    rng = random.Random(f"{seed}:{ridx}:bklab-search")
    m, depth, n = spec.m, spec.depth, spec.n_leaves
    q, L = params.q, params.L
    f, h = params.f, params.h

    vals = None
    if start is not None:
        try:
            vals = project_to_moments(np.asarray(start, dtype=float), f, h, q)
        except InfeasibleStartError:
            return None
    else:
        for attempt in range(6):
            try:
                raw = _seed_values(params, spec, ridx + attempt, rng)
                vals = project_to_moments(raw, f, h, q)
                break
            except InfeasibleStartError:
                continue
    if vals is None:
        return None

    cur, cur_mx = _objective(vals, L, q, m, depth)
    cur = float(cur)
    slack = None  # cells of cur_mx at or below the floor; rebuilt after an accept
    tau = params.tau

    def propose():
        """Draw one move: (i, j, k, t) three-cell, (i, j) swap, a block
        slice to sort, or None for a draw that proposes nothing."""
        nonlocal slack
        r = rng.random()
        if n >= 3 and r < 0.55:
            # below the floor the objective ignores the values, so such
            # cells absorb moment corrections for free
            if slack is None:
                slack = np.flatnonzero(cur_mx <= L).tolist()
            if len(slack) >= 2 and rng.random() < 0.6:
                i = rng.randrange(n)
                j, k = rng.sample(slack, 2)
                if i == j or i == k:
                    return None
            else:
                i, j, k = rng.sample(range(n), 3)
            vi = vals[i]
            style = rng.random()
            if style < 0.25:
                t = 0.0
            elif style < 0.4:
                t = tau
            elif style < 0.5:
                t = vals[j]
            else:
                t = vi * math.exp(rng.gauss(0.0, 0.7)) if vi > 0 else \
                    f * math.exp(rng.gauss(0.0, 1.0))
            return i, j, k, t
        if r < 0.85:
            i, j = rng.sample(range(n), 2)
            return None if vals[i] == vals[j] else (i, j)
        d = rng.randrange(1, depth + 1)
        idx = rng.randrange(m**d)
        block = m ** (depth - d)
        return slice(idx * block, (idx + 1) * block)

    cand = np.empty((_WINDOW_ROWS + 1, n))
    left = budget
    while left:
        state = rng.getstate()
        # (draws up to the proposal, its row, its last row): a three-cell
        # move stages both orientations of (a, b), the second winning only
        # if strictly better
        staged = []
        rows = drawn = 0
        while rows < _WINDOW_ROWS and drawn < left:
            drawn += 1
            move = propose()
            if move is None:
                continue
            row = rows
            cand[row] = vals
            if isinstance(move, slice):
                cand[row, move] = np.sort(vals[move])[::-1]
            elif len(move) == 2:
                i, j = move
                cand[row, i], cand[row, j] = vals[j], vals[i]
            else:
                i, j, k, t = move
                sol = _three_cell_targets(vals[i], vals[j], vals[k], t, q)
                if sol is None:
                    continue
                rows += 1
                cand[rows] = vals
                cand[row:rows + 1, i] = t
                cand[row:rows + 1, j] = sol
                cand[row:rows + 1, k] = sol[::-1]
            staged.append((drawn, row, rows))
            rows += 1
        objs, mxs = _objective(cand[:rows], L, q, m, depth)
        for upto, row, last in staged:
            row = last if objs[last] > objs[row] else row
            if objs[row] > cur:
                rng.setstate(state)
                for _ in range(upto):
                    propose()
                drawn = upto
                vals[:] = cand[row]
                cur, cur_mx, slack = float(objs[row]), mxs[row], None
                break
        left -= drawn
    return _consolidate_tail(vals, params, spec)


_SELECT_REL_TOL = 5e-3


def local_search(params: BellmanParams, spec: TreeSpec, seed: int = 0,
                 budget: int = 20000, restarts: int = 16,
                 extra_seeds=None) -> SearchReport:
    """Multi-start greedy maximization of the truncated maximal objective.

    budget counts move proposals per restart.  extra_seeds, if given, is a
    list of leaf-value arrays injected as additional restarts (used by the
    convergence study to warm-start from a coarser depth).

    Near-extremality has two certificates: the objective's distance to the
    analytic bound and the eigen-style extremality defect.  Restarts whose
    objectives agree to within half a percent are below the searcher's
    resolution, so among those the reported winner is the one with the
    smallest defect (ties break to the lowest restart index).
    """
    if budget <= 0:
        raise DomainError(f"budget must be positive, got {budget}")
    if restarts <= 0:
        raise DomainError(f"restarts must be positive, got {restarts}")
    _require_feasible(params, spec.n_leaves)
    t0 = time.perf_counter()
    f, h, q = params.f, params.h, params.q

    if h >= f**q * (1.0 - 1e-12):
        # Hoelder equality pins phi to the constant f
        vals = np.full(spec.n_leaves, float(f))
        return _finish_report(vals, params, spec, 0, seed, restarts, 0, t0)

    extras = [np.asarray(e, dtype=float) for e in (extra_seeds or [])]
    n_extra = len(extras)

    kept = []
    for ridx in range(restarts + n_extra):
        start = extras[ridx] if ridx < n_extra else None
        out = _run_restart(params, spec, ridx, seed, budget, start=start)
        if out is not None:
            kept.append((ridx, *out))
    if not kept:
        raise InfeasibleStartError(
            f"no restart found a feasible start at depth {spec.depth}"
        )
    top = max(obj for _, obj, _, _ in kept)
    floor = top * (1.0 - _SELECT_REL_TOL)
    best_ridx, _, _, best_vals = min(
        (row for row in kept if row[1] >= floor),
        key=lambda row: (row[2], row[0]),
    )
    return _finish_report(best_vals, params, spec, budget * len(kept), seed,
                          restarts + n_extra, best_ridx, t0)


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
    t0 = time.perf_counter()

    if h >= f**q * (1.0 - 1e-12):
        vals = np.full(n, float(f))
        return _finish_report(vals, params, spec, 0, 0, 1, 0, t0)

    if n == 2:
        # the exact feasible set: x + y = 2f with (x^q + y^q)/2 = h; h may
        # sit within _require_feasible's slack below the curve's floor at
        # x = 2f, so it is clamped there to keep the root bracketed
        target = max(h, 0.5 * (2.0 * f) ** q)
        x = _bisect(lambda x: target - 0.5 * (x**q + (2.0 * f - x) ** q), f, 2.0 * f)
        vals = np.array([x, 2.0 * f - x])
        return _finish_report(vals, params, spec, 1, 0, 1, 0, t0)

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
        raise InfeasibleStartError(
            f"no quantized pattern reaches the q-mass band of width {band}"
        )
    vals = project_to_moments(best_vals, f, h, q)
    return _finish_report(vals, params, spec, combos, 0, 1, 0, t0)


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
    prev_vals = None
    prev_depth = None
    for depth in depths:
        spec = TreeSpec(m, depth)
        extra = None
        if prev_vals is not None:
            extra = [np.repeat(prev_vals, m ** (depth - prev_depth))]
        rep = local_search(params, spec, seed=seed, budget=budget,
                           restarts=restarts, extra_seeds=extra)
        if reports:
            last = reports[-1]
            if rep.gap > last.gap * 1.10 + 1e-12:
                raise ConvergenceError(
                    f"gap rose from {last.gap} at depth {last.depth} "
                    f"to {rep.gap} at depth {depth}"
                )
            if rep.residual > last.residual * 1.10 + 1e-12:
                raise ConvergenceError(
                    f"residual rose from {last.residual} at depth {last.depth} "
                    f"to {rep.residual} at depth {depth}"
                )
        reports.append(rep)
        prev_vals = np.array([float(v) for v in rep.best_phi.leaf_values(spec)])
        prev_depth = depth
    return reports
