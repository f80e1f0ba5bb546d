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
import time
from dataclasses import dataclass
from fractions import Fraction

from .dyadic import (
    ExcessSet,
    Linearization,
    StepFunction,
    TreeElement,
    TreeSpec,
    excess_set,
    _kolmogorov_slack,
    _weak_type_slack,
    linearize,
    maximal_function,
)
from .errors import (
    DomainError,
    FamilyNotInSPhiError,
    FamilyNotMaximalError,
    RefinementTooCoarseError,
)
from .kernel import BellmanParams, omega_q

# -- objective and residual ---------------------------------------------


def objective(phi: StepFunction, L: float, q: float, spec: TreeSpec) -> float:
    """integral of max(M phi, L)^q over [0, 1)."""
    if L <= 0:
        raise DomainError(f"threshold L must be positive, got {L}")
    mvals = maximal_function(phi, spec).leaf_values(spec)
    w = float(spec.leaf_measure)
    return sum(max(float(v), L) ** q for v in mvals) * w


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
    mvals = maximal_function(phi, spec).leaf_values(spec)
    lvals = phi.leaf_values(spec)
    w = float(spec.leaf_measure)
    inside = 0.0
    outside = 0.0
    k = 0
    for mv, lv in zip(mvals, lvals):
        mv, lv = float(mv), float(lv)
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


@dataclass(frozen=True)
class InequalityGap:
    beta: float
    lhs: float
    rhs: float

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs


def _leaf_span(el: TreeElement, spec: TreeSpec) -> tuple[int, int]:
    width = spec.m ** (spec.depth - el.depth)
    return el.index * width, (el.index + 1) * width


def _family_leaves(family, lin: Linearization, spec: TreeSpec, *, maximal: bool) -> set[int]:
    """Validate a family against S_phi and return the union of its leaves.

    Tree elements overlap exactly when one contains the other, so disjointness
    and comparability both reduce to interval tests on leaf index spans.
    """
    family = list(family)
    if not family:
        raise DomainError("family must contain at least one element")
    members = frozenset(lin.elements)
    spans = []
    for el in family:
        if el not in members:
            raise FamilyNotInSPhiError(f"{el} is not in S_phi")
        spans.append(_leaf_span(el, spec))
    for i, (alo, ahi) in enumerate(spans):
        for blo, bhi in spans[i + 1:]:
            if alo < bhi and blo < ahi:
                raise DomainError("family elements are not pairwise disjoint")
    if maximal:
        for el in lin.elements:
            lo, hi = _leaf_span(el, spec)
            if all(hi <= s or e <= lo for s, e in spans):
                raise FamilyNotMaximalError(
                    f"{el} in S_phi is comparable with no family member"
                )
    leaves: set[int] = set()
    for lo, hi in spans:
        leaves.update(range(lo, hi))
    return leaves


def random_maximal_family(lin: Linearization, spec: TreeSpec, rng) -> tuple[TreeElement, ...]:
    """Random maximal disjoint subfamily of S_phi.

    Greedy over a shuffled order: every rejected element overlapped, hence is
    comparable with, an accepted one, so the result passes the maximality check.
    """
    order = list(lin.elements)
    rng.shuffle(order)
    chosen: list[TreeElement] = []
    spans: list[tuple[int, int]] = []
    for el in order:
        lo, hi = _leaf_span(el, spec)
        if all(hi <= s or e <= lo for s, e in spans):
            chosen.append(el)
            spans.append((lo, hi))
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


def _leaf_floats(phi, lin, spec):
    """Float leaf arrays of M phi (reassembled from lin's A-sets) and of phi."""
    mvals = [0.0] * spec.n_leaves
    for el, idxs in lin.a_sets.items():
        y = float(lin.averages[el])
        for i in idxs:
            mvals[i] = y
    return mvals, [float(v) for v in phi.leaf_values(spec)]


def _gap_sweep(kind, phi, spec, q, family, betas, lin=None, floats=None, norm1=None):
    """One InequalityGap per beta for one evaluator kind and one family.

    Everything but the final rhs formula is independent of beta and is
    computed once.  A caller that already holds ``_leaf_floats`` and
    ``float(phi.integral())`` passes them as ``floats`` and ``norm1``.
    """
    for beta in betas:
        if beta <= 0:
            raise DomainError(f"beta must be positive, got {beta}")
    if not (0.0 < q < 1.0):
        raise DomainError(f"q must lie in (0, 1), got {q}")
    maximal, complement = _GAP_KINDS[kind]
    family = tuple(family)
    lin = lin if lin is not None else linearize(phi, spec)
    union = _family_leaves(family, lin, spec, maximal=maximal)
    mvals, lvals = floats if floats is not None else _leaf_floats(phi, lin, spec)
    w = float(spec.leaf_measure)
    e1 = sum(float(el.measure(spec.m)) * float(lin.averages[el]) ** q for el in family)
    if complement:
        region = [i for i in range(spec.n_leaves) if i not in union]
        fq = (float(phi.integral()) if norm1 is None else norm1) ** q
        e = fq - e1
    else:
        region, e = union, e1
    lhs = sum(mvals[i] ** q for i in region) * w
    s = sum(lvals[i] ** q for i in region) * w
    return [InequalityGap(beta=beta, lhs=lhs,
                          rhs=((beta + 1.0) * e - (beta + 1.0) ** q * s) / ((1.0 - q) * beta))
            for beta in betas]


def theorem41_gap(phi, spec: TreeSpec, q: float, family, beta: float,
                  lin: Linearization | None = None) -> InequalityGap:
    """Gap over the complement of a maximal disjoint family in S_phi.

    lhs = integral of (M phi)^q off the union; rhs uses the family averages
    and the q-mass of phi off the union.
    """
    return _gap_sweep("theorem41", phi, spec, q, family, [beta], lin)[0]


def theorem42_gap(phi, spec: TreeSpec, q: float, family, beta: float,
                  lin: Linearization | None = None) -> InequalityGap:
    """Gap over the union of a disjoint family in S_phi (no maximality needed)."""
    return _gap_sweep("theorem42", phi, spec, q, family, [beta], lin)[0]


def corollary41_gap(phi, spec: TreeSpec, q: float, family, beta: float,
                    lin: Linearization | None = None) -> InequalityGap:
    """Complement-side gap for a disjoint family without the maximality demand."""
    return _gap_sweep("corollary41", phi, spec, q, family, [beta], lin)[0]


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
    if not (0.0 < q < 1.0):
        raise DomainError(f"q must lie in (0, 1), got {q}")
    if refine is None:
        refine = default_refine(spec)
    if refine < 0:
        raise DomainError(f"refine depth must be nonnegative, got {refine}")
    grid = spec.m**refine

    work = phi.to_exact()
    lin = linearize(work, spec)
    exc = excess_set(work, L, spec, q)
    eset = set(exc.leaves)
    leaf_vals = work.leaf_values(spec)
    w = spec.leaf_measure

    entries: list[GPhiEntry] = []
    new_pieces: list[tuple[Fraction, Fraction, Fraction]] = []

    for el in lin.elements:
        if not lin.a_sets[el] or lin.averages[el] < L:
            continue
        idxs = lin.a_sets[el]
        a = sum((leaf_vals[i] * w for i in idxs), start=Fraction(0))
        b = sum(float(leaf_vals[i]) ** q * float(w) for i in idxs)
        pos = w * sum(1 for i in idxs if leaf_vals[i] > 0)

        if a == 0:
            entries.append(GPhiEntry(el, Fraction(0), Fraction(0), (), a, b))
            for i in idxs:
                new_pieces.append((w * i, w * (i + 1), Fraction(0)))
            continue

        distinct = {leaf_vals[i] for i in idxs if leaf_vals[i] > 0}
        if len(distinct) == 1:
            # already two valued on this set: the exact solution is phi itself
            gamma = pos
        else:
            gamma_f = (b / float(a) ** q) ** (1.0 / (1.0 - q))
            # snap half up: a support of exactly half a grid cell must survive
            gamma = Fraction(math.floor(Fraction(gamma_f) * grid + Fraction(1, 2)), grid)
            if gamma > pos:
                gamma = pos
            if gamma <= 0:
                raise RefinementTooCoarseError(
                    f"support measure {gamma_f} of {el} vanishes on the m^-{refine} grid"
                )
        c = a / gamma

        support: list[tuple[Fraction, Fraction]] = []
        remaining = gamma
        for i in idxs:
            s, e = w * i, w * (i + 1)
            take = min(e - s, remaining)
            if take > 0:
                support.append((s, s + take))
                new_pieces.append((s, s + take, c))
                remaining -= take
            if take < e - s:
                new_pieces.append((s + take, e, Fraction(0)))
        if remaining != 0:
            raise RefinementTooCoarseError(
                f"could not place support of measure {gamma} inside A({el})"
            )
        entries.append(GPhiEntry(el, c, gamma, tuple(support), a, b))

    for i in range(spec.n_leaves):
        if i not in eset:
            new_pieces.append((w * i, w * (i + 1), leaf_vals[i]))

    g = StepFunction.from_pieces(new_pieces).simplify()
    record = GPhiRecord(entries=tuple(entries), excess=exc, refine=refine)
    return g, record


def leaf_integrals(g: StepFunction, spec: TreeSpec) -> list:
    """Integral of g over each depth-N leaf, by one sweep over the pieces."""
    w = spec.leaf_measure
    out = [Fraction(0) if g.is_exact else 0.0] * spec.n_leaves
    piece = 0
    for i in range(spec.n_leaves):
        lo, hi = w * i, w * (i + 1)
        while piece < len(g.values) and g.breakpoints[piece + 1] <= lo:
            piece += 1
        j = piece
        total = out[i]
        while j < len(g.values) and g.breakpoints[j] < hi:
            a = max(lo, g.breakpoints[j])
            b = min(hi, g.breakpoints[j + 1])
            if b > a:
                total = total + g.values[j] * (b - a)
            j += 1
        out[i] = total
    return out


def ancestor_max_averages(g: StepFunction, spec: TreeSpec) -> list:
    """Per leaf, the max of Av_I(g) over ancestors of depth 0..N.

    Works for functions that are not leaf aligned; for aligned ones this is
    exactly the maximal function at leaf resolution.
    """
    ints = leaf_integrals(g, spec)
    m = spec.m
    levels = [ints]
    for d in range(spec.depth - 1, -1, -1):
        below = levels[0]
        levels.insert(0, [sum(below[j * m + i] for i in range(m)) for j in range(m**d)])
    # levels[d][j] holds the integral over element (d, j); averages rescale by m^d
    running = [levels[0][0]]
    for d in range(1, spec.depth + 1):
        prev = running
        scale = m**d
        running = [max(prev[j // m], levels[d][j] * scale) for j in range(m**d)]
    return running


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
    elapsed_seconds: float


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
    for name, value in (("beta_lo", beta_lo), ("beta_hi", beta_hi)):
        if not (0.0 < value < math.inf):
            raise DomainError(f"{name} must be finite and positive, got {value}")
    rng = random.Random(seed)
    betas = [beta_lo * (beta_hi / beta_lo) ** (i / (n_beta - 1)) for i in range(n_beta)] \
        if n_beta > 1 else [beta_lo]
    t0 = time.perf_counter()
    checks = 0
    violations = 0
    min_slack = math.inf
    by_kind = dict.fromkeys((*_GAP_KINDS, "weak_type", "kolmogorov"), math.inf)

    def record(pid, kind, label, gap):
        nonlocal checks, violations, min_slack
        checks += 1
        if gap.slack < -1e-12:
            violations += 1
        if gap.slack < min_slack:
            min_slack = gap.slack
        if gap.slack < by_kind[kind]:
            by_kind[kind] = gap.slack
        if collect is not None:
            collect.append((f"phi{pid}", label, gap))

    for pid in range(n_phi):
        phi = random_step_function(rng, spec)
        lin = linearize(phi, spec)
        fam_max = random_maximal_family(lin, spec, rng)
        fam_dis = random_disjoint_family(lin, spec, rng)
        mvals, lvals = _leaf_floats(phi, lin, spec)
        norm1 = float(phi.integral())
        for kind, (maximal, _) in _GAP_KINDS.items():
            fam, label = (fam_max, "maximal") if maximal else (fam_dis, "disjoint")
            for gap in _gap_sweep(kind, phi, spec, q, fam, betas, lin, (mvals, lvals), norm1):
                record(pid, kind, f"{kind}:{label}", gap)
        top = float(max(lin.averages.values(), default=0.0)) or 1.0
        for _ in range(5):
            lam = top * math.exp(rng.uniform(math.log(1e-3), math.log(1.2)))
            sr = _weak_type_slack(mvals, lvals, lam, spec)
            record(pid, "weak_type", "weak_type:level",
                   InequalityGap(beta=lam, lhs=sr.lhs, rhs=sr.rhs))
        unions = [list(range(spec.n_leaves))]
        for _ in range(2):
            unions.append([i for i in range(spec.n_leaves) if rng.random() < 0.5])
        for leaves in unions:
            sr = _kolmogorov_slack(mvals, norm1, q, leaves, spec)
            measure = len(leaves) * float(spec.leaf_measure)
            record(pid, "kolmogorov", "kolmogorov:union",
                   InequalityGap(beta=measure, lhs=sr.lhs, rhs=sr.rhs))
    return VerifyReport(
        n_phi=n_phi,
        n_checks=checks,
        n_violations=violations,
        min_slack=min_slack,
        min_slack_by_kind=by_kind,
        elapsed_seconds=time.perf_counter() - t0,
    )
