"""Inequality evaluators, the eigenfunction residual, and the g transform.

The three gap evaluators compute both sides of the refined summation
inequalities for a disjoint family inside S_phi: with y_I the averages,
E1 = sum mu(I_j) y_j^q over the family and s the q-mass of phi over the
relevant region,

    integral (M phi)^q  <=  ((b+1) E1 - (b+1)^q s) / ((1-q) b),   b > 0,

taken over the union of the family or over its complement.  The right side is
minimized at b = omega(E1/s)^(1/q) - 1.

The g transform replaces phi on each A(phi, I) inside the excess set
{M phi >= L} by a two-valued function {c_I, 0} matching both moments:
c_I gamma_I = integral of phi, c_I^q gamma_I = integral of phi^q, so

    gamma_I = (int phi^q / (int phi)^q)^(1/(1-q)),   c_I = int phi / gamma_I.

The support is packed from the left at an m-adic refinement grid fine enough
that snapping gamma_I costs less than a float ulp, and c_I is an exact
rational, so averages over every member of S_phi are preserved identically
and M g >= M phi pointwise without tolerance.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction

from .dyadic import (
    ExcessSet,
    InequalityGap,
    Linearization,
    StepFunction,
    TreeElement,
    TreeSpec,
    _fractions,
    _grid,
    _levels,
    _running_max,
    _sum_in_order,
    _tree,
    _unscale_floats,
    excess_set,
    kolmogorov_gap,
    linearize,
    weak_type_gap,
)
from .errors import (
    DomainError,
    FamilyNotInSPhiError,
    FamilyNotMaximalError,
    RefinementTooCoarseError,
)
from .kernel import BellmanParams, _check_q, omega_q

# -- objective and residual ---------------------------------------------


def objective(phi: StepFunction, L: float, q: float, spec: TreeSpec) -> float:
    """integral of max(M phi, L)^q over [0, 1)."""
    if not 0 < L < math.inf:
        raise DomainError(f"threshold L must be finite and positive, got {L}")
    _check_q(q)
    t = _tree(phi, spec)
    mvals = _unscale_floats(t.best, t.scale)
    return _sum_in_order(max(v, L) ** q for v in mvals) * float(spec.leaf_measure)


@dataclass(frozen=True)
class EigenResidual:
    """integral |max(M phi, L) - c^(1/q) phi|^q, split over the excess set.

    excess_part integrates over {M phi >= L} (where max(M phi, L) = M phi),
    flat_part over the complement (where it equals L); total is their sum.
    """

    total: float
    excess_part: float
    flat_part: float
    excess_measure: float


def eigen_residual(phi: StepFunction, params: BellmanParams, spec: TreeSpec) -> EigenResidual:
    """Theorem-style extremality defect of phi for the given problem data."""
    q, L = params.q, params.L
    root = params.eigenvalue_root
    w = float(spec.leaf_measure)
    inside = outside = 0.0
    k = 0
    t = _tree(phi, spec)
    for mv, lv in zip(_unscale_floats(t.best, t.scale), _unscale_floats(t.levels[-1], t.scale)):
        if mv >= L:
            inside += abs(mv - root * lv) ** q * w
            k += 1
        else:
            outside += abs(L - root * lv) ** q * w
    return EigenResidual(
        total=inside + outside,
        excess_part=inside,
        flat_part=outside,
        excess_measure=k * w,
    )


# -- gap evaluators -----------------------------------------------------


def _family_leaves(family, members, spec: TreeSpec, *, maximal: bool) -> set[int]:
    """Check a family against S_phi, its (depth, index) keys in members; return the leaf union.

    Tree elements overlap exactly when one contains the other, so disjointness
    and comparability both reduce to tests on the leaves covered so far.
    """
    family = list(family)
    if not family:
        raise DomainError("family must contain at least one element")
    spans = []
    for el in family:
        if (el.depth, el.index) not in members:
            raise FamilyNotInSPhiError(f"{el} is not in S_phi")
        spans.append(el.leaf_range(spec))
    covered = bytearray(spec.n_leaves)
    for r in spans:
        if covered.find(1, r.start, r.stop) >= 0:
            raise DomainError("family elements are not pairwise disjoint")
        covered[r.start:r.stop] = b"\1" * len(r)
    if maximal:
        for d, j in sorted(members):
            width = spec.m ** (spec.depth - d)
            if covered.find(1, j * width, (j + 1) * width) < 0:
                raise FamilyNotMaximalError(
                    f"{TreeElement(d, j)} in S_phi is comparable with no family member"
                )
    leaves: set[int] = set()
    for r in spans:
        leaves.update(r)
    return leaves


def random_maximal_family(lin: Linearization, spec: TreeSpec, rng) -> tuple[TreeElement, ...]:
    """Random maximal disjoint subfamily of S_phi.

    Greedy over a shuffled order: every rejected element overlapped, hence is
    comparable with, an accepted one, so the result passes the maximality check.
    """
    order = list(lin.elements)
    rng.shuffle(order)
    chosen: list[TreeElement] = []
    covered = bytearray(spec.n_leaves)
    for el in order:
        r = el.leaf_range(spec)
        if covered.find(1, r.start, r.stop) < 0:
            chosen.append(el)
            covered[r.start:r.stop] = b"\1" * len(r)
    return tuple(sorted(chosen))


def random_disjoint_family(lin: Linearization, spec: TreeSpec, rng) -> tuple[TreeElement, ...]:
    """Random nonempty disjoint subfamily of S_phi, usually not maximal."""
    fam = list(random_maximal_family(lin, spec, rng))
    keep = [el for el in fam if rng.random() < 0.7]
    if not keep:
        keep = [fam[rng.randrange(len(fam))]]
    return tuple(sorted(keep))


# kind -> (family must be maximal, gap taken over the complement of the union)
_GAP_KINDS = {
    "theorem41": (True, True),
    "theorem42": (False, False),
    "corollary41": (False, True),
}


def _gap_sweep(kind, phi, spec, q, family, betas):
    """lhs and the rhs at each beta for one evaluator kind and one family.

    lhs does not depend on beta, and everything in the rhs but its final
    formula is computed once, from the tree of phi: S_phi, y_I and ||phi||_1,
    the root average (so a root-only family has e = 0 exactly).
    """
    for beta in betas:
        if beta <= 0:
            raise DomainError(f"beta must be positive, got {beta}")
    _check_q(q)
    maximal, complement = _GAP_KINDS[kind]
    family = tuple(family)
    t = _tree(phi, spec)
    union = _family_leaves(family, t.groups, spec, maximal=maximal)
    mvals, lvals = _unscale_floats(t.best, t.scale), _unscale_floats(t.levels[-1], t.scale)
    w = float(spec.leaf_measure)
    ys = _unscale_floats([t.levels[el.depth][el.index] for el in family], t.scale)
    e1 = _sum_in_order(1 / spec.m**el.depth * y ** q for el, y in zip(family, ys))
    if complement:
        region = [i for i in range(spec.n_leaves) if i not in union]
        e = _unscale_floats(t.levels[0], t.scale)[0] ** q - e1
    else:
        region, e = union, e1
    lhs = _sum_in_order(mvals[i] ** q for i in region) * w
    s = _sum_in_order(lvals[i] ** q for i in region) * w
    return lhs, [((beta + 1.0) * e - (beta + 1.0) ** q * s) / ((1.0 - q) * beta) for beta in betas]


def theorem41_gap(phi, spec: TreeSpec, q: float, family, beta: float) -> InequalityGap:
    """Gap over the complement of a maximal disjoint family in S_phi.

    lhs = integral of (M phi)^q off the union; rhs uses the family averages
    and the q-mass of phi off the union.
    """
    lhs, (rhs,) = _gap_sweep("theorem41", phi, spec, q, family, [beta])
    return InequalityGap(beta=beta, lhs=lhs, rhs=rhs)


def theorem42_gap(phi, spec: TreeSpec, q: float, family, beta: float) -> InequalityGap:
    """Gap over the union of a disjoint family in S_phi (no maximality needed)."""
    lhs, (rhs,) = _gap_sweep("theorem42", phi, spec, q, family, [beta])
    return InequalityGap(beta=beta, lhs=lhs, rhs=rhs)


def corollary41_gap(phi, spec: TreeSpec, q: float, family, beta: float) -> InequalityGap:
    """Complement-side gap for a disjoint family without the maximality demand."""
    lhs, (rhs,) = _gap_sweep("corollary41", phi, spec, q, family, [beta])
    return InequalityGap(beta=beta, lhs=lhs, rhs=rhs)


def optimal_beta(e1: float, s: float, q: float) -> float:
    """Minimizer omega(e1/s)^(1/q) - 1 of the right side in the gap bounds."""
    if e1 <= 0 or s <= 0:
        raise DomainError("optimal_beta needs positive masses")
    if e1 < s:
        raise DomainError(f"optimal_beta needs e1 >= s, got e1={e1} < s={s}")
    return omega_q(e1 / s, q) ** (1.0 / q) - 1.0


GAP_CSV_HEADER = "phi_id,family_id,beta,lhs,rhs,slack"


def gap_rows_to_csv(rows) -> str:
    """Render (phi_id, family_id, kind, gap) rows in the fixed CSV layout."""
    lines = [GAP_CSV_HEADER]
    for phi_id, family_id, gap in rows:
        lines.append(
            f"{phi_id},{family_id},{gap.beta:.17g},{gap.lhs:.17g},"
            f"{gap.rhs:.17g},{gap.slack:.17g}"
        )
    return "\n".join(lines) + "\n"


# -- the g transform ----------------------------------------------------


@dataclass(frozen=True)
class GPhiEntry:
    """Replacement data on one A(phi, I): value c on a support of measure gamma."""

    element: TreeElement
    c: Fraction
    gamma: Fraction
    support: tuple[tuple[Fraction, Fraction], ...]
    mass: Fraction
    q_mass: float


@dataclass(frozen=True)
class GPhiRecord:
    entries: tuple[GPhiEntry, ...]
    excess: ExcessSet
    refine: int


def default_refine(spec: TreeSpec) -> int:
    """Grid depth at which snapping a float support measure is below one ulp."""
    return max(spec.depth, math.ceil(70.0 / math.log2(spec.m)))


def g_phi(phi: StepFunction, L, q: float, spec: TreeSpec,
          refine: int | None = None) -> tuple[StepFunction, GPhiRecord]:
    """Two-valued redistribution of phi on the excess set {M phi >= L}.

    Off the excess set g = phi.  On each A(phi, I) with Av_I(phi) >= L the
    values are replaced by the pair {c_I, 0} matching both moments of phi
    there, with the support packed from the left at the refinement grid.
    Averages over every member of S_phi are preserved exactly, hence
    M g >= M phi everywhere; and the support never exceeds the measure of
    {phi > 0} within the set, so g vanishes at least where phi does.
    """
    _check_q(q)
    if refine is None:
        refine = default_refine(spec)
    if refine < 0:
        raise DomainError(f"refine depth must be nonnegative, got {refine}")
    grid = spec.m**refine

    work = phi.to_exact()
    exc = excess_set(work, L, spec, q)
    excess = set(exc.leaves)  # an A-set lies in {M phi >= L} iff its average is >= L
    t = _tree(work, spec)
    leaf_vals, scale = t.levels[-1], t.scale  # phi on leaf i is leaf_vals[i] / scale
    n = spec.n_leaves
    # lengths are integers in units of 1/unit, the finer of the leaf and refine grids
    unit = spec.m ** max(refine, spec.depth)
    cell = unit // n
    fw, point = 1 / n, _grid(n)

    entries: list[GPhiEntry] = []
    cut: dict[int, tuple] = {}  # excess leaf -> (c, support length, support end inside it)
    for (d, j), idxs in sorted(t.groups.items()):
        if not idxs or idxs[0] not in excess:
            continue
        el = TreeElement(d, j)
        vals = [leaf_vals[i] for i in idxs]
        a = Fraction(sum(vals), scale * n)
        b = _sum_in_order((v / scale) ** q * fw for v in vals)
        positive = [v for v in vals if v > 0]
        pos = cell * len(positive)
        if len(set(positive)) <= 1:
            # zero or already two valued on this set: phi itself is the solution
            gamma = pos
        else:
            gamma_f = (b / float(a) ** q) ** (1.0 / (1.0 - q))
            # snap half up, floor(gamma_f grid + 1/2): a support of exactly half
            # a grid cell must survive
            p, r = gamma_f.as_integer_ratio()
            gamma = min(pos, (2 * p * grid + r) // (2 * r) * (unit // grid))
            if gamma <= 0:
                raise RefinementTooCoarseError(
                    f"support measure {gamma_f} of {el} vanishes on the m^-{refine} grid"
                )
        c = Fraction(sum(vals) * unit, scale * n * gamma) if gamma else a
        # pack the support from the left; gamma <= pos <= |A| cell, so it fits
        support = []
        remaining = gamma
        for i in idxs:
            take = min(cell, remaining)
            remaining -= take
            end = Fraction(i * cell + take, unit) if 0 < take < cell else None
            cut[i] = (c, take, end)
            if take > 0:
                support.append((point(i), point(i + 1) if end is None else end))
        entries.append(GPhiEntry(el, c, Fraction(gamma, unit), tuple(support), a, b))

    # one ordered walk over the leaves: c on the support, then 0; phi elsewhere, one per value
    phi_off = {v: Fraction(v, scale) for v in {v for i, v in enumerate(leaf_vals) if i not in cut}}
    starts, values, zero = [], [], point(0)  # g's breakpoints and values
    for i, v in enumerate(leaf_vals):
        c, take, end = cut[i] if i in cut else (phi_off[v], cell, None)
        for value, length, start in ((c, take, None), (zero, cell - take, end)):
            if length > 0 and (not values or value is not values[-1] and value != values[-1]):
                starts.append(point(i) if start is None else start)
                values.append(value)
    g = StepFunction._trusted(starts + [point(n)], values)
    record = GPhiRecord(entries=tuple(entries), excess=exc, refine=refine)
    return g, record


def _leaf_integrals(g: StepFunction, spec: TreeSpec) -> tuple[list[int], int]:
    """Integral of g over each depth-N leaf, by one sweep over the pieces.

    Overlaps are integer lengths in units of 1/unit, unit the lcm of m^N and
    the breakpoint denominators.  The integrals are integers on the scale
    D unit, D the lcm of the value denominators of g made exact.  A piece of
    value v adds v cell, computed once, to each leaf it meets, less its two overhangs.
    """
    g = g.to_exact()
    n = spec.n_leaves
    unit = math.lcm(n, *(b.denominator for b in g.breakpoints))
    cell = unit // n
    ends = [b.numerator * (unit // b.denominator) for b in g.breakpoints]
    den = math.lcm(*(v.denominator for v in g.values))
    coefs = [v.numerator * (den // v.denominator) for v in g.values]
    out = [0] * n
    for v, a, b in zip(coefs, ends, ends[1:]):
        first, last, whole = a // cell, (b - 1) // cell, v * cell
        for i in range(first, last + 1):
            out[i] += whole
        out[first] -= v * (a - first * cell)
        out[last] -= v * ((last + 1) * cell - b)
    return out, den * unit


def leaf_integrals(g: StepFunction, spec: TreeSpec) -> list:
    """Integral of g over each depth-N leaf; Fractions for exact g, else rounded once."""
    out, scale = _leaf_integrals(g, spec)
    return _fractions(out, scale) if g.is_exact else _unscale_floats(out, scale)


def ancestor_max_averages(g: StepFunction, spec: TreeSpec) -> list:
    """Per leaf, the max of Av_I(g) over ancestors of depth 0..N.

    Works for functions that are not leaf aligned (the leaf averages are the
    leaf integrals times m^N, integer multiples of m^N on the scale of
    _leaf_integrals, as _levels needs).  Fractions for exact g, and for aligned
    exact g exactly the maximal function at leaf resolution; else rounded once.
    """
    out, scale = _leaf_integrals(g, spec)
    n = spec.n_leaves
    best = _running_max(_levels([v * n for v in out], spec.m), spec.m)[0]
    return _fractions(best, scale) if g.is_exact else _unscale_floats(best, scale)


# -- randomized verification harness ------------------------------------


def random_step_function(rng, spec: TreeSpec, *, zero_prob: float = 0.25,
                         exact: bool = False) -> StepFunction:
    """Random nonnegative leaf-aligned function with occasional flat zeros."""
    vals: list = []
    for _ in range(spec.n_leaves):
        if rng.random() < zero_prob:
            vals.append(Fraction(0) if exact else 0.0)
        elif exact:
            vals.append(Fraction(rng.randrange(1, 64), rng.randrange(1, 10)))
        else:
            vals.append(math.exp(rng.gauss(0.0, 1.0)))
    if all(v == 0 for v in vals):
        vals[rng.randrange(spec.n_leaves)] = Fraction(1) if exact else 1.0
    return StepFunction.from_leaf_values(vals, spec)


@dataclass(frozen=True)
class VerifyReport:
    n_phi: int
    n_checks: int
    n_violations: int
    min_slack: float
    min_slack_by_kind: dict


def verify_suite(n_phi: int, spec: TreeSpec, q: float, *, n_beta: int = 50,
                 beta_lo: float = 1e-3, beta_hi: float = 1e3, seed: int = 0,
                 collect=None) -> VerifyReport:
    """Fuzz the whole inequality family over random functions.

    Each function gets one random maximal family (used by the complement-side
    bounds) and one random disjoint subfamily (union-side bound), swept over a
    log grid of beta; on top of that the weak-type bound is probed at five
    random levels and the direct q-integral bound on three random leaf unions.
    A violation is a slack below -1e-12.  Pass a list as ``collect`` to
    receive (phi_id, family_id, gap) rows for CSV export; the beta column
    carries the level for weak-type rows and the union measure for q-integral
    rows.
    """
    for name, value in (("n_phi", n_phi), ("n_beta", n_beta)):
        if value < 1:
            raise DomainError(f"{name} must be at least 1, got {value}")
    # the rhs divides by (1-q) beta: a subnormal or underflowing grid overflows it
    for name, value in (("beta_lo", beta_lo), ("beta_hi", beta_hi)):
        if not (sys.float_info.min <= value < math.inf):
            raise DomainError(f"{name} must be finite and normal (>= 2.2e-308), got {value}")
    ratio = beta_hi / beta_lo
    if not (sys.float_info.min <= ratio < math.inf):
        raise DomainError(f"beta_hi / beta_lo must be finite and normal, got {ratio}")
    rng = random.Random(seed)
    betas = [beta_lo * ratio ** (i / (n_beta - 1)) for i in range(n_beta)] \
        if n_beta > 1 else [beta_lo]
    batches = []  # (phi id, kind, label, betas, lhs per beta, rhs per beta)
    for pid in range(n_phi):
        phi = random_step_function(rng, spec)
        lin = linearize(phi, spec)
        fam_max = random_maximal_family(lin, spec, rng)
        fam_dis = random_disjoint_family(lin, spec, rng)
        for kind, (maximal, _) in _GAP_KINDS.items():
            fam, label = (fam_max, "maximal") if maximal else (fam_dis, "disjoint")
            lhs, rhss = _gap_sweep(kind, phi, spec, q, fam, betas)
            batches.append((pid, kind, f"{kind}:{label}", betas, [lhs] * n_beta, rhss))
        top = float(max(lin.averages.values(), default=0.0)) or 1.0
        lams = [top * math.exp(rng.uniform(math.log(1e-3), math.log(1.2))) for _ in range(5)]
        weak = [weak_type_gap(phi, lam, spec) for lam in lams]
        unions = [list(range(spec.n_leaves))]
        for _ in range(2):
            unions.append([i for i in range(spec.n_leaves) if rng.random() < 0.5])
        kolm = [kolmogorov_gap(phi, q, leaves, spec) for leaves in unions]
        for kind, label, gaps in (("weak_type", "weak_type:level", weak),
                                  ("kolmogorov", "kolmogorov:union", kolm)):
            batches.append((pid, kind, label, *zip(*((g.beta, g.lhs, g.rhs) for g in gaps))))
    # one pass in row order: each min is taken as min([inf, *slacks in row order]) would
    lows = dict.fromkeys((*_GAP_KINDS, "weak_type", "kolmogorov"), math.inf)
    low, n_violations = math.inf, 0
    for pid, kind, label, bs, lhss, rhss in batches:
        slacks = [rhs - lhs for lhs, rhs in zip(lhss, rhss)]
        n_violations += sum(1 for s in slacks if s < -1e-12)
        lows[kind] = min([lows[kind], *slacks])
        low = min([low, *slacks])
        if collect is not None:
            collect.extend((f"phi{pid}", label, InequalityGap(beta=b, lhs=lhs, rhs=rhs))
                           for b, lhs, rhs in zip(bs, lhss, rhss))
    return VerifyReport(n_phi=n_phi, n_checks=sum(len(b[3]) for b in batches),
                        n_violations=n_violations, min_slack=low, min_slack_by_kind=lows)
