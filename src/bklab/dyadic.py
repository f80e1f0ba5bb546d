"""Step functions on [0, 1) and the m-adic maximal operator, evaluated exactly.

The tree T consists of the intervals [j m^-d, (j+1) m^-d) for d = 0..N.  A
StepFunction is piecewise constant with Fraction breakpoints; when its values
are Fractions (or ints) every average below is exact, which is what makes
the linearization identities testable to the bit.  Functions aligned to the
leaf grid at depth N are exactly the ones the tree operations accept: for
those, averages over elements deeper than N equal the function value, so
truncating the supremum at depth N is lossless and

    (M phi)(x) = max over ancestors I of x, depth 0..N, of Av_I(phi).

The linearization assigns to each point the shallowest ancestor attaining
that maximum, giving the distinguished family S_phi, the sets A(phi, I) and
the representation M phi = sum y_I 1_{A(phi, I)}.

Every tree evaluator reads one tree per function and spec, built by ``_tree``
on first request and kept as long as the function lives: the levels
(``_levels``: every average from its m children, in index order), their
running max (``_running_max``: per leaf, the largest ancestor average and the
shallowest depth attaining it) and, from those depths, the leaves grouped by
A-set (``_a_sets``), (m^(N+1) - 1)/(m - 1) + 2 m^N numbers in all.  So M phi,
the A-sets, the excess set and the inequality gaps, which read S_phi from the
tree, agree to the bit.
The search's vectorized ``leaf_maximal`` runs the same float arithmetic in
NumPy, so it gives maximal_function's float leaf values bit for bit as well:
for m = 2^k it multiplies by 2^-k, which rounds as the divide by m does; its
running max repeats the parents m times on narrow levels, strides on wide.

Exact functions are evaluated on integers.  With D the lcm of the value
denominators, every leaf value times the scale D m^N is an integer multiple
of m^N, so every element average times that one common scale is an integer
as well, and the levels pass divides by m with ``//`` and no remainder.
Fractions are built only for the values handed back to callers, one per
distinct integer, floats as v / scale; the leaf-grid points i m^-N are shared
(see _grid).  A float block sum past 1.8e308 raises DomainError; to_exact() has no limit.
"""

from __future__ import annotations

import bisect
import math
import operator
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from numbers import Integral

from .errors import DomainError, NotTGoodError
from .kernel import _check_q

Value = float | Fraction
_SHARED_GRID = 2**12  # most leaves whose grid _grid shares: 3 ms to fill, 55 ms at 2^16


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
    if type(v) is float and 0.0 <= v < math.inf:  # the common case; -0.0 stays as given
        return v
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


def _unscale_floats(vals: list, scale: int | None) -> list[float]:
    """Level values as floats: float levels as they are, integers off their scale rounded once."""
    return vals if scale is None else [v / scale for v in vals]


def _fractions(vals: list[int], scale: int) -> list[Fraction]:
    """Fraction(v, scale) for each integer v of vals, one object per distinct v."""
    return list(map({v: Fraction(v, scale) for v in set(vals)}.__getitem__, vals))


@lru_cache(maxsize=8)
def _grid(n: int):
    """The leaf-grid point i -> Fraction(i, n): built once and shared up to _SHARED_GRID leaves."""
    shared = n <= _SHARED_GRID and tuple(Fraction(i, n) for i in range(n + 1))
    return shared.__getitem__ if shared else lambda i: Fraction(i, n)


def _run_starts(values) -> list[int]:
    """Index of the first value of each run of equal values."""
    return [i for i, v in enumerate(values) if i == 0 or v != values[i - 1]]


class StepFunction:
    """Nonnegative piecewise-constant function on [0, 1).

    Breakpoints are exact Fractions; values are floats or Fractions.  Integer
    values are promoted to Fractions, so functions built from ints compute in
    exact arithmetic end to end.
    """

    __slots__ = ("breakpoints", "values", "_trees")

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
        object.__setattr__(self, "_trees", {})  # TreeSpec -> _Tree, filled by _tree

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
    def _trusted(cls, breakpoints, values) -> "StepFunction":
        """Build from Fraction breakpoints and values that are already checked."""
        self = object.__new__(cls)
        object.__setattr__(self, "breakpoints", tuple(breakpoints))
        object.__setattr__(self, "values", tuple(values))
        object.__setattr__(self, "_trees", {})
        return self

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
        return cls._from_runs(vals, spec)

    @classmethod
    def _from_runs(cls, vals: list, spec: TreeSpec, scale: int | None = None) -> "StepFunction":
        """One piece per run of equal, already checked leaf values (integers on scale if given)."""
        n = spec.n_leaves
        starts = _run_starts(vals)
        firsts = [vals[i] for i in starts]
        return cls._trusted(map(_grid(n), starts + [n]),
                            firsts if scale is None else _fractions(firsts, scale))

    # -- basic structure ------------------------------------------------

    def simplify(self) -> "StepFunction":
        """Merge adjacent pieces with equal values."""
        starts = _run_starts(self.values)
        return StepFunction._trusted([self.breakpoints[i] for i in starts] + [Fraction(1)],
                                     [self.values[i] for i in starts])

    @property
    def is_exact(self) -> bool:
        return all(isinstance(v, Fraction) for v in self.values)

    def to_exact(self) -> "StepFunction":
        """Promote float values to exact Fractions (floats are dyadic rationals)."""
        if self.is_exact:
            return self
        return StepFunction._trusted(self.breakpoints, [Fraction(v) for v in self.values])

    def value_at(self, x) -> Value:
        x = Fraction(x)
        if not (0 <= x < 1):
            raise DomainError(f"point {x} outside [0, 1)")
        # breakpoints[0] = 0 <= x < 1 = breakpoints[-1], so the piece index is in range
        return self.values[bisect.bisect_right(self.breakpoints, x) - 1]

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
        return self.integral_over(0, 1)

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
        """Integral over [a, b) within [0, 1]; exact for Fraction values.  The
        products add in order from 0, not by 3.12's compensating sum()."""
        return reduce(operator.add, (v * length for v, length in self._overlaps(a, b)), 0)

    def q_integral_over(self, a, b, q: float) -> float:
        return _sum_in_order(float(v) ** q * float(length) for v, length in self._overlaps(a, b))

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
        """Inverse of to_json_obj; any malformed document raises DomainError.

        m, num, den and den_pow are JSON integers, den_pow in [0, 512] as to_json_obj writes it."""
        def integer(obj: dict, key: str) -> int:
            x = obj[key]
            if type(x) is not int:  # a float or a bool is refused, not rounded
                raise ValueError(f"{key} must be a JSON integer, got {type(x).__name__}")
            return x

        def endpoint(e) -> Fraction:
            p = integer(e, "den_pow")
            if not 0 <= p <= 512:
                raise ValueError(f"den_pow must be in [0, 512], got {p}")
            return Fraction(integer(e, "num"), power(p))

        try:
            m = integer(obj, "m")
            if m < 2:
                raise DomainError(f"branching factor must be >= 2, got {m}")
            power = lru_cache(maxsize=None)(m.__pow__)  # m**den_pow once per distinct den_pow
            pieces = []
            for p in obj["pieces"]:
                v = p["value"]
                if isinstance(v, dict):
                    v = Fraction(integer(v, "num"), integer(v, "den"))
                pieces.append((endpoint(p["start"]), endpoint(p["end"]), v))
            return cls.from_pieces(pieces), m
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"malformed step function object: {exc}") from exc


# -- tree machinery -----------------------------------------------------


def _levels(leaves: list, m: int) -> list[list]:
    """Averages over every element, [depth][index], built from the leaf row up.

    Each average sums its m children in index order, then divides by m.
    Float leaves give float averages, their sums added in index order onto
    0.0 on every Python version.  Integer leaves are the exact
    representation: all on one common scale and each a multiple of m^N (see
    _tree), so every block sum divides by m with ``//`` and no
    remainder, and every average is an integer on that same scale.
    """
    if isinstance(leaves[0], int):
        total, div = sum, operator.floordiv
    else:
        total, div = _sum_in_order, operator.truediv
    levels = [leaves]
    while len(levels[0]) > 1:
        below = levels[0]
        levels.insert(0, [div(total(below[j:j + m]), m) for j in range(0, len(below), m)])
    return levels


def _sum_in_order(xs) -> float:
    """xs added left to right onto 0.0, the float sum() of Python 3.10 and
    3.11; from 3.12 on sum() compensates float sums, which changes bits."""
    total = 0.0
    for x in xs:
        total += x
    return total


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


# phi's tree at one spec: _levels and their scale, _running_max's per-leaf max, and the
# leaves grouped by A-set, from _running_max's per-leaf depth
_Tree = namedtuple("_Tree", "levels scale best groups")


def _tree(phi: StepFunction, spec: TreeSpec) -> _Tree:
    """The tree of phi at spec, built on first request and kept on phi; callers only read it.

    Float values give float levels (every leaf made a float first) and scale
    None, or DomainError past the float maximum, raised on every call since
    nothing is kept.  Exact values give integer levels on the scale D m^N, D
    the lcm of the value denominators: the average over element (d, j) is
    exactly levels[d][j] / scale.  Requires leaf alignment.
    """
    tree = phi._trees.get(spec)
    if tree is not None:
        return tree
    if not phi.is_exact:
        levels, scale = _levels([float(v) for v in phi.leaf_values(spec)], spec.m), None
        if levels[0][0] == math.inf:  # values are nonnegative: any overflow reaches the root
            raise DomainError("float block sum overflows past 1.8e308; pass phi.to_exact()")
    else:
        scale = math.lcm(*(v.denominator for v in phi.values)) * spec.n_leaves
        levels = _levels([v.numerator * (scale // v.denominator)
                          for v in phi.leaf_values(spec)], spec.m)
    best, depths = _running_max(levels, spec.m)
    tree = phi._trees[spec] = _Tree(levels, scale, best, _a_sets(depths, spec))
    return tree


def tree_averages(phi: StepFunction, spec: TreeSpec) -> list[list[Value]]:
    """Averages of phi over every element, indexed [depth][index].

    Fractions when phi has Fraction values; otherwise every leaf is made a
    float first.  Requires leaf alignment.
    """
    t = _tree(phi, spec)
    return [list(row) if t.scale is None else _fractions(row, t.scale) for row in t.levels]


def maximal_function(phi: StepFunction, spec: TreeSpec) -> StepFunction:
    """M phi as a step function on the same leaf grid; exact in rational mode."""
    t = _tree(phi, spec)
    return StepFunction._from_runs(t.best, spec, t.scale)


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

    def maximal_from_parts(self) -> StepFunction:
        """Reassemble M phi as sum of y_I over A(phi, I)."""
        leaves = [None] * self.spec.n_leaves
        for el, idxs in self.a_sets.items():
            y = self.averages[el]
            for i in idxs:
                leaves[i] = y
        if any(v is None for v in leaves):
            raise DomainError("A-sets do not cover [0, 1)")
        return StepFunction.from_leaf_values(leaves, self.spec)


def linearize(phi: StepFunction, spec: TreeSpec) -> Linearization:
    """Distinguished family of phi by the shallowest-attaining-ancestor rule."""
    levels, scale, _, groups = _tree(phi, spec)
    m = spec.m
    # the star walk and ordering work on the (depth, index) keys of the A-sets;
    # one TreeElement is built per member of S_phi, not per leaf
    elements = {key: TreeElement(*key) for key in sorted(groups)}

    star: dict[TreeElement, TreeElement | None] = {}
    for (d, j), el in elements.items():
        up = None
        while up is None and d > 0:
            d, j = d - 1, j // m
            up = elements.get((d, j))
        star[el] = up

    point, ys = _grid(spec.n_leaves), [levels[d][j] for d, j in elements]
    return Linearization(
        spec=spec,
        elements=tuple(elements.values()),
        averages=dict(zip(elements.values(), ys if scale is None else _fractions(ys, scale))),
        a_sets={el: tuple(groups[key]) for key, el in elements.items()},
        weights={el: point(len(groups[key])) for key, el in elements.items()},
        star=star,
    )


def _a_sets(depths: list[int], spec: TreeSpec) -> dict[tuple[int, int], list[int]]:
    """Leaf indices by the (depth, index) key of their A-set; the root is always a key."""
    widths = [spec.m ** (spec.depth - d) for d in range(spec.depth + 1)]
    groups: dict[tuple[int, int], list[int]] = {(0, 0): []}
    for i, d in enumerate(depths):
        groups.setdefault((d, i // widths[d]), []).append(i)
    return groups


def s_phi_by_criterion(phi: StepFunction, spec: TreeSpec) -> frozenset[TreeElement]:
    """S_phi by the strict ancestor-average test.

    An element I != X belongs to S_phi iff every proper ancestor J satisfies
    Av_J(phi) < Av_I(phi); the root always belongs.  Independent of
    linearize(), which goes through the A-sets.
    """
    levels = _tree(phi, spec).levels  # comparisons only: any common scale serves
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
    if L != L or L in (math.inf, -math.inf):
        raise DomainError(f"threshold L must be finite, got {L}")
    _check_q(q)
    levels, scale = _tree(phi, spec)[:2]
    m, N = spec.m, spec.depth
    # an integer v on scale has v / scale >= L iff v >= ceil(L scale), exactly
    bar = L if scale is None else math.ceil(Fraction(L) * scale)
    chosen: list[TreeElement] = []

    stack = [(0, 0)]  # (depth, index) pairs, depth first: elements only for the chosen
    while stack:
        d, i = stack.pop()
        if levels[d][i] >= bar:
            chosen.append(TreeElement(d, i))
        elif d < N:
            stack.extend((d + 1, c) for c in range(i * m + m - 1, i * m - 1, -1))
    chosen.sort()

    leaves: list[int] = []
    for el in chosen:
        leaves.extend(el.leaf_range(spec))
    leaf_vals = levels[-1]
    fw = 1 / spec.n_leaves  # rounded once: the same float as float(spec.leaf_measure)
    if scale is None:
        mass = _sum_in_order(leaf_vals[i] * fw for i in leaves)
        q_mass = _sum_in_order(leaf_vals[i] ** q * fw for i in leaves)
    else:
        mass = Fraction(sum(leaf_vals[i] for i in leaves), scale * spec.n_leaves)
        q_mass = _sum_in_order((leaf_vals[i] / scale) ** q * fw for i in leaves)
    return ExcessSet(
        elements=tuple(chosen),
        measure=_grid(spec.n_leaves)(len(leaves)),
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
    t = _tree(phi, spec)
    if not 0 < lam < math.inf:
        raise DomainError(f"weak-type level must be finite and positive, got {lam}")
    # an integer v on scale has v / scale > lam iff v > floor(lam scale), exactly
    bar = lam if t.scale is None else math.floor(Fraction(lam) * t.scale)
    leaf_vals = _unscale_floats(t.levels[-1], t.scale)
    w = float(spec.leaf_measure)
    idx = [i for i in range(spec.n_leaves) if t.best[i] > bar]
    rhs = _sum_in_order(leaf_vals[i] for i in idx) * w / float(lam)
    return InequalityGap(beta=lam, lhs=w * len(idx), rhs=rhs)


def kolmogorov_gap(phi: StepFunction, q: float, leaves, spec: TreeSpec) -> InequalityGap:
    """integral_E (M phi)^q <= (1-q)^-1 mu(E)^(1-q) ||phi||_1^q for any leaf union E."""
    t = _tree(phi, spec)
    _check_q(q)
    leaves = sorted(set(leaves))
    if leaves and not (0 <= leaves[0] and leaves[-1] < spec.n_leaves):
        raise DomainError("leaf indices out of range")
    mvals = _unscale_floats(t.best, t.scale)
    norm1 = _unscale_floats(t.levels[0], t.scale)[0]  # ||phi||_1 is the root average
    w = float(spec.leaf_measure)
    lhs = _sum_in_order(mvals[i] ** q for i in leaves) * w
    mu_e = w * len(leaves)
    rhs = mu_e ** (1.0 - q) * norm1 ** q / (1.0 - q)
    return InequalityGap(beta=mu_e, lhs=lhs, rhs=rhs)
