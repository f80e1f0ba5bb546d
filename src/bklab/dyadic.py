"""Step functions on [0, 1) and the m-adic maximal operator, evaluated exactly.

The tree T consists of the intervals [j m^-d, (j+1) m^-d) for d = 0..N.  A
StepFunction is piecewise constant with Fraction breakpoints; when its values
are Fractions (or ints) every average below is computed in exact rational
arithmetic, which is what makes the linearization identities testable to the
bit.  Functions aligned to the leaf grid at depth N are exactly the ones the
tree operations accept: for those, averages over elements deeper than N equal
the function value, so truncating the supremum at depth N is lossless and

    (M phi)(x) = max over ancestors I of x, depth 0..N, of Av_I(phi).

The linearization assigns to each point the shallowest ancestor attaining
that maximum, giving the distinguished family S_phi, the sets A(phi, I) and
the representation M phi = sum y_I 1_{A(phi, I)}.

All tree evaluators share one levels pass (``_levels``: every average from
its m children, in index order) and one running max (``_running_max``: per
leaf, the largest ancestor average and the shallowest depth attaining it),
so M phi, the A-sets, the excess set and the inequality gaps agree to the bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral

from .errors import DomainError, NotTGoodError
from .kernel import _check_q

Value = float | Fraction


@dataclass(frozen=True)
class TreeSpec:
    """Branching factor m and truncation depth N of the tree."""

    m: int = 2
    depth: int = 8

    def __post_init__(self) -> None:
        if not isinstance(self.m, Integral) or self.m < 2:
            raise DomainError(f"branching factor must be an integer >= 2, got {self.m}")
        if not isinstance(self.depth, Integral) or self.depth < 0:
            raise DomainError(f"depth must be a nonnegative integer, got {self.depth}")
        object.__setattr__(self, "m", int(self.m))
        object.__setattr__(self, "depth", int(self.depth))

    @property
    def n_leaves(self) -> int:
        return self.m**self.depth

    @property
    def leaf_measure(self) -> Fraction:
        return Fraction(1, self.n_leaves)


@dataclass(frozen=True, order=True)
class TreeElement:
    """Interval [index m^-depth, (index+1) m^-depth) as a tree node."""

    depth: int
    index: int

    def __post_init__(self) -> None:
        if self.depth < 0 or self.index < 0:
            raise DomainError(f"bad tree element ({self.depth}, {self.index})")

    def start(self, m: int) -> Fraction:
        return Fraction(self.index, m**self.depth)

    def end(self, m: int) -> Fraction:
        return Fraction(self.index + 1, m**self.depth)

    def measure(self, m: int) -> Fraction:
        return Fraction(1, m**self.depth)

    def parent(self, m: int) -> "TreeElement":
        if self.depth == 0:
            raise DomainError("root has no parent")
        return TreeElement(self.depth - 1, self.index // m)

    def children(self, m: int) -> list["TreeElement"]:
        return [TreeElement(self.depth + 1, self.index * m + i) for i in range(m)]

    def ancestor(self, d: int, m: int) -> "TreeElement":
        if d > self.depth:
            raise DomainError("ancestor depth exceeds element depth")
        return TreeElement(d, self.index // m ** (self.depth - d))

    def contains(self, other: "TreeElement", m: int) -> bool:
        """True if other is a subset of self (as tree intervals)."""
        if other.depth < self.depth:
            return False
        return other.index // m ** (other.depth - self.depth) == self.index

    def leaf_range(self, spec: TreeSpec) -> range:
        """Indices of the depth-N leaves below this element."""
        if self.depth > spec.depth:
            raise DomainError("element deeper than the tree")
        width = spec.m ** (spec.depth - self.depth)
        return range(self.index * width, (self.index + 1) * width)


ROOT = TreeElement(0, 0)


def _as_value(v) -> Value:
    if isinstance(v, Fraction):
        val = v
    elif isinstance(v, bool):
        raise DomainError("boolean is not a function value")
    elif isinstance(v, Integral):
        val = Fraction(int(v))
    else:
        val = float(v)
        if not val == val or val in (float("inf"), float("-inf")):
            raise DomainError(f"value must be finite, got {val}")
    if val < 0:
        raise DomainError(f"values must be nonnegative, got {val}")
    return val


def _run_starts(values) -> list[int]:
    """Index of the first value of each run of equal values."""
    return [i for i, v in enumerate(values) if i == 0 or v != values[i - 1]]


class StepFunction:
    """Nonnegative piecewise-constant function on [0, 1).

    Breakpoints are exact Fractions; values are floats or Fractions.  Integer
    values are promoted to Fractions, so functions built from ints compute in
    exact arithmetic end to end.
    """

    __slots__ = ("breakpoints", "values")

    def __init__(self, breakpoints, values):
        bps = tuple(Fraction(b) for b in breakpoints)
        vals = tuple(_as_value(v) for v in values)
        if len(bps) != len(vals) + 1:
            raise DomainError("need one more breakpoint than values")
        if bps[0] != 0 or bps[-1] != 1:
            raise DomainError("breakpoints must run from 0 to 1")
        for a, b in zip(bps, bps[1:]):
            if b <= a:
                raise DomainError("breakpoints must be strictly increasing")
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "values", vals)

    def __setattr__(self, name, value):
        raise AttributeError("StepFunction is immutable")

    def __eq__(self, other):
        if not isinstance(other, StepFunction):
            return NotImplemented
        return self.breakpoints == other.breakpoints and self.values == other.values

    def __repr__(self):
        return f"StepFunction({len(self.values)} pieces)"

    # -- constructors ---------------------------------------------------

    @classmethod
    def constant(cls, value) -> "StepFunction":
        return cls((0, 1), (value,))

    @classmethod
    def from_pieces(cls, pieces) -> "StepFunction":
        """Build from (start, end, value) triples covering [0, 1) contiguously."""
        pieces = sorted(pieces, key=lambda p: Fraction(p[0]))
        if not pieces:
            raise DomainError("no pieces")
        bps = [Fraction(pieces[0][0])]
        vals = []
        for start, end, value in pieces:
            if Fraction(start) != bps[-1]:
                raise DomainError(f"pieces not contiguous at {start}")
            bps.append(Fraction(end))
            vals.append(value)
        return cls(bps, vals)

    @classmethod
    def from_leaf_values(cls, values, spec: TreeSpec) -> "StepFunction":
        """Value per depth-N leaf, all validated; runs of equal values merge."""
        vals = [_as_value(v) for v in values]
        n = spec.n_leaves
        if len(vals) != n:
            raise DomainError(f"expected {n} leaf values, got {len(vals)}")
        starts = _run_starts(vals)
        return cls([Fraction(i, n) for i in starts] + [1], [vals[i] for i in starts])

    # -- basic structure ------------------------------------------------

    def simplify(self) -> "StepFunction":
        """Merge adjacent pieces with equal values."""
        starts = _run_starts(self.values)
        return StepFunction([self.breakpoints[i] for i in starts] + [1],
                            [self.values[i] for i in starts])

    @property
    def is_exact(self) -> bool:
        return all(isinstance(v, Fraction) for v in self.values)

    def to_exact(self) -> "StepFunction":
        """Promote float values to exact Fractions (floats are dyadic rationals)."""
        return StepFunction(self.breakpoints, [Fraction(v) for v in self.values])

    def value_at(self, x) -> Value:
        x = Fraction(x)
        if not (0 <= x < 1):
            raise DomainError(f"point {x} outside [0, 1)")
        lo, hi = 0, len(self.values) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self.breakpoints[mid] <= x:
                lo = mid
            else:
                hi = mid - 1
        return self.values[lo]

    def is_leaf_aligned(self, spec: TreeSpec) -> bool:
        n = spec.n_leaves
        return all(n % b.denominator == 0 for b in self.breakpoints)

    def leaf_values(self, spec: TreeSpec) -> list[Value]:
        """Value on each depth-N leaf; each piece covers a whole number of leaves."""
        if not self.is_leaf_aligned(spec):
            raise NotTGoodError(
                f"function is not aligned to the depth-{spec.depth} leaf grid"
            )
        n = spec.n_leaves
        ends = [b.numerator * (n // b.denominator) for b in self.breakpoints]
        out = []
        for v, a, b in zip(self.values, ends, ends[1:]):
            out += [v] * (b - a)
        return out

    # -- integrals ------------------------------------------------------

    def integral(self):
        """Integral over [0, 1); exact when the values are Fractions."""
        total = 0
        for i, v in enumerate(self.values):
            total += v * (self.breakpoints[i + 1] - self.breakpoints[i])
        return total

    def q_integral(self, q: float) -> float:
        """Integral of phi^q; float (fractional powers leave the rationals)."""
        return self.q_integral_over(0, 1, q)

    def _overlaps(self, a, b) -> list:
        """(value, overlap length) for each piece meeting [a, b) within [0, 1]."""
        a, b = Fraction(a), Fraction(b)
        if not (0 <= a <= b <= 1):
            raise DomainError(f"bad interval [{a}, {b})")
        out = []
        for v, lo, hi in zip(self.values, self.breakpoints, self.breakpoints[1:]):
            lo, hi = max(a, lo), min(b, hi)
            if hi > lo:
                out.append((v, hi - lo))
        return out

    def integral_over(self, a, b):
        """Integral over [a, b) within [0, 1]; exact for Fraction values."""
        return sum(v * length for v, length in self._overlaps(a, b))

    def q_integral_over(self, a, b, q: float) -> float:
        return sum((float(v) ** q * float(length) for v, length in self._overlaps(a, b)), 0.0)

    def average_over(self, element: TreeElement, m: int):
        return self.integral_over(element.start(m), element.end(m)) * m**element.depth

    # -- serialization --------------------------------------------------

    def to_json_obj(self, m: int) -> dict:
        """Schema: {"m": m, "pieces": [{"start": {"num", "den_pow"}, "end": ..., "value"}]}.

        Endpoints are encoded as num / m^den_pow; Fraction values as
        {"num", "den"}; float values as JSON numbers.  Round-trips exactly.
        """
        def endpoint(b: Fraction) -> dict:
            den = b.denominator
            power = 1
            p = 0
            while power % den != 0:
                power *= m
                p += 1
                if p > 512:
                    raise DomainError(f"breakpoint {b} is not m-adic for m={m}")
            return {"num": b.numerator * (power // den), "den_pow": p}

        pieces = []
        for i, v in enumerate(self.values):
            piece = {
                "start": endpoint(self.breakpoints[i]),
                "end": endpoint(self.breakpoints[i + 1]),
            }
            if isinstance(v, Fraction):
                piece["value"] = {"num": v.numerator, "den": v.denominator}
            else:
                piece["value"] = v
            pieces.append(piece)
        return {"m": m, "pieces": pieces}

    @classmethod
    def from_json_obj(cls, obj: dict) -> tuple["StepFunction", int]:
        """Inverse of to_json_obj; any malformed document raises DomainError."""
        def endpoint(e) -> Fraction:
            return Fraction(int(e["num"]), m ** int(e["den_pow"]))

        try:
            m = int(obj["m"])
            if m < 2:
                raise DomainError(f"branching factor must be >= 2, got {m}")
            pieces = []
            for p in obj["pieces"]:
                v = p["value"]
                if isinstance(v, dict):
                    v = Fraction(int(v["num"]), int(v["den"]))
                pieces.append((endpoint(p["start"]), endpoint(p["end"]), v))
            return cls.from_pieces(pieces), m
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"malformed step function object: {exc}") from exc


# -- tree machinery -----------------------------------------------------


def _levels(leaves: list, m: int) -> list[list]:
    """Averages over every element, [depth][index], built from the leaf row up.

    Each average sums its m children in index order, then divides by m; the
    same arithmetic serves float and Fraction leaves.
    """
    levels = [leaves]
    while len(levels[0]) > 1:
        below = levels[0]
        levels.insert(0, [sum(below[j:j + m]) / m for j in range(0, len(below), m)])
    return levels


def _running_max(levels: list[list], m: int) -> tuple[list, list[int]]:
    """Per leaf, the largest ancestor average and the shallowest depth attaining it."""
    best, depth = levels[0], [0]
    for d in range(1, len(levels)):
        new_best, new_depth = [], []
        for j, v in enumerate(levels[d]):
            if v > best[j // m]:
                new_best.append(v)
                new_depth.append(d)
            else:
                new_best.append(best[j // m])
                new_depth.append(depth[j // m])
        best, depth = new_best, new_depth
    return best, depth


def tree_averages(phi: StepFunction, spec: TreeSpec) -> list[list[Value]]:
    """Averages of phi over every element, indexed [depth][index].

    Exact when phi has Fraction values; otherwise every leaf is made a float
    first.  Requires leaf alignment.
    """
    leaves = phi.leaf_values(spec)
    if not phi.is_exact:
        leaves = [float(v) for v in leaves]
    return _levels(leaves, spec.m)


def maximal_function(phi: StepFunction, spec: TreeSpec) -> StepFunction:
    """M phi as a step function on the same leaf grid; exact in rational mode."""
    best = _running_max(tree_averages(phi, spec), spec.m)[0]
    return StepFunction.from_leaf_values(best, spec)


def is_t_good(phi: StepFunction, spec: TreeSpec) -> bool:
    """Whether every point's supremum of ancestor averages is attained.

    For leaf-aligned step functions the supremum over all depths equals the
    maximum over depths 0..N (deeper averages repeat the leaf value), so this
    always holds once alignment is checked.
    """
    phi.leaf_values(spec)  # raises NotTGoodError off the leaf grid
    return True


@dataclass(frozen=True)
class Linearization:
    """S_phi with its averages y_I, the sets A(phi, I), weights and star map.

    a_sets maps each I in S_phi to the depth-N leaf indices where I is the
    shallowest element attaining M phi; weights are the exact measures of
    those sets.  star maps I to the smallest member of S_phi strictly
    containing it (None for the root).
    """

    spec: TreeSpec
    elements: tuple[TreeElement, ...]
    averages: dict
    a_sets: dict
    weights: dict
    star: dict

    def _maximal_leaves(self) -> list:
        """Leaf values of M phi: y_I on each leaf of A(phi, I)."""
        leaves = [None] * self.spec.n_leaves
        for el, idxs in self.a_sets.items():
            y = self.averages[el]
            for i in idxs:
                leaves[i] = y
        if any(v is None for v in leaves):
            raise DomainError("A-sets do not cover [0, 1)")
        return leaves

    def maximal_from_parts(self) -> StepFunction:
        """Reassemble M phi as sum of y_I over A(phi, I)."""
        return StepFunction.from_leaf_values(self._maximal_leaves(), self.spec)


def linearize(phi: StepFunction, spec: TreeSpec) -> Linearization:
    """Distinguished family of phi by the shallowest-attaining-ancestor rule."""
    return _linearize(tree_averages(phi, spec), spec)


def _linearize(levels: list[list], spec: TreeSpec) -> Linearization:
    """linearize over the averages levels of tree_averages."""
    m, N = spec.m, spec.depth

    # the A-sets, star walk and ordering work on (depth, index) keys; one
    # TreeElement is built per member of S_phi, not per leaf
    groups: dict[tuple[int, int], list[int]] = {(0, 0): []}
    for i, d in enumerate(_running_max(levels, m)[1]):
        groups.setdefault((d, i // m ** (N - d)), []).append(i)
    elements = {key: TreeElement(*key) for key in sorted(groups)}

    star: dict[TreeElement, TreeElement | None] = {}
    for (d, j), el in elements.items():
        up = None
        while up is None and d > 0:
            d, j = d - 1, j // m
            up = elements.get((d, j))
        star[el] = up

    w = spec.leaf_measure
    return Linearization(
        spec=spec,
        elements=tuple(elements.values()),
        averages={el: levels[d][j] for (d, j), el in elements.items()},
        a_sets={el: tuple(groups[key]) for key, el in elements.items()},
        weights={el: w * len(groups[key]) for key, el in elements.items()},
        star=star,
    )


def s_phi_by_criterion(phi: StepFunction, spec: TreeSpec) -> frozenset[TreeElement]:
    """S_phi by the strict ancestor-average test.

    An element I != X belongs to S_phi iff every proper ancestor J satisfies
    Av_J(phi) < Av_I(phi); the root always belongs.  Independent of
    linearize(), which goes through the A-sets.
    """
    levels = tree_averages(phi, spec)
    m = spec.m
    out = {ROOT}
    prev = [None]
    for d in range(1, spec.depth + 1):
        cur = []
        for j in range(m**d):
            p = j // m
            parent_avg = levels[d - 1][p]
            bound = parent_avg if d == 1 else max(prev[p], parent_avg)
            cur.append(bound)
            if levels[d][j] > bound:
                out.add(TreeElement(d, j))
        prev = cur
    return frozenset(out)


@dataclass(frozen=True)
class ExcessSet:
    """Maximal elements with average >= L, with the masses over their union.

    measure is k, mass is B = integral of phi over the union, q_mass is
    A = integral of phi^q.
    """

    elements: tuple[TreeElement, ...]
    measure: Fraction
    mass: object
    q_mass: float
    leaves: tuple[int, ...]


def excess_set(phi: StepFunction, L, spec: TreeSpec, q: float) -> ExcessSet:
    """Decompose {M phi >= L} into maximal tree elements.

    The union of the returned elements equals {M phi >= L} exactly at leaf
    resolution.  B >= k L whenever the set is nonempty.
    """
    return _excess_from_levels(tree_averages(phi, spec), L, spec, q, phi.is_exact)


def _excess_from_levels(levels: list[list], L, spec: TreeSpec, q: float,
                        exact: bool) -> ExcessSet:
    """excess_set over the averages levels of tree_averages; exact for Fraction levels."""
    m, N = spec.m, spec.depth
    chosen: list[TreeElement] = []

    stack = [ROOT]
    while stack:
        el = stack.pop()
        if levels[el.depth][el.index] >= L:
            chosen.append(el)
        elif el.depth < N:
            stack.extend(reversed(el.children(m)))
    chosen.sort()

    leaves: list[int] = []
    for el in chosen:
        leaves.extend(el.leaf_range(spec))
    leaf_vals = levels[-1]
    w = spec.leaf_measure
    measure = w * len(leaves)
    mass = sum((leaf_vals[i] * w for i in leaves), start=Fraction(0) if exact else 0.0)
    q_mass = float(sum(float(leaf_vals[i]) ** q * float(w) for i in leaves))
    return ExcessSet(
        elements=tuple(chosen),
        measure=measure,
        mass=mass,
        q_mass=q_mass,
        leaves=tuple(leaves),
    )


# -- classical inequalities at leaf resolution --------------------------


@dataclass(frozen=True)
class InequalityGap:
    """lhs <= rhs at beta: the inequality's parameter, the level or the union measure."""

    beta: float
    lhs: float
    rhs: float

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs


def weak_type_gap(phi: StepFunction, lam: float, spec: TreeSpec) -> InequalityGap:
    """mu({M phi > lam}) <= (1/lam) integral of phi over {M phi > lam}."""
    levels = tree_averages(phi, spec)
    return _weak_type_slack(_running_max(levels, spec.m)[0], levels[-1], lam, spec)


def _weak_type_slack(mvals, leaf_vals, lam, spec: TreeSpec) -> InequalityGap:
    """weak_type_gap from the leaf values of M phi and of phi."""
    if lam <= 0:
        raise DomainError(f"weak-type level must be positive, got {lam}")
    w = float(spec.leaf_measure)
    idx = [i for i in range(spec.n_leaves) if mvals[i] > lam]
    lhs = w * len(idx)
    rhs = sum(float(leaf_vals[i]) for i in idx) * w / float(lam)
    return InequalityGap(beta=lam, lhs=lhs, rhs=rhs)


def kolmogorov_gap(phi: StepFunction, q: float, leaves, spec: TreeSpec) -> InequalityGap:
    """integral_E (M phi)^q <= (1-q)^-1 mu(E)^(1-q) ||phi||_1^q for any leaf union E."""
    return _kolmogorov_slack(_running_max(tree_averages(phi, spec), spec.m)[0],
                             float(phi.integral()), q, leaves, spec)


def _kolmogorov_slack(mvals, norm1: float, q: float, leaves, spec: TreeSpec) -> InequalityGap:
    """kolmogorov_gap from the leaf values of M phi and norm1 = ||phi||_1."""
    _check_q(q)
    leaves = sorted(set(leaves))
    if leaves and not (0 <= leaves[0] and leaves[-1] < spec.n_leaves):
        raise DomainError("leaf indices out of range")
    w = float(spec.leaf_measure)
    lhs = sum(float(mvals[i]) ** q for i in leaves) * w
    mu_e = w * len(leaves)
    rhs = mu_e ** (1.0 - q) * norm1 ** q / (1.0 - q)
    return InequalityGap(beta=mu_e, lhs=lhs, rhs=rhs)
