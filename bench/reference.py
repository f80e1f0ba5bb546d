"""Computations made apart from bklab, used to check its outputs.

Nothing here imports bklab.  The maximal function is rebuilt from prefix
sums of the leaf values (bklab averages level by level instead), and the
q = 1/2 Bellman constants come from the closed form of the transfer inverse.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate

import numpy as np


def exact_maximal(leaves, m: int, depth: int) -> list[Fraction]:
    """M phi at each leaf in exact arithmetic, by a scan over ancestor blocks.

    The average over the depth-d block holding leaf i is a difference of two
    prefix sums divided by the block width.
    """
    leaves = [Fraction(v) for v in leaves]
    n = m**depth
    if len(leaves) != n:
        raise ValueError(f"expected {n} leaf values, got {len(leaves)}")
    prefix = [Fraction(0), *accumulate(leaves)]
    out = []
    for i in range(n):
        best = None
        for d in range(depth + 1):
            width = m ** (depth - d)
            lo = (i // width) * width
            avg = (prefix[lo + width] - prefix[lo]) / width
            if best is None or avg > best:
                best = avg
        out.append(best)
    return out


def float_maximal(values, m: int, depth: int) -> np.ndarray:
    """M phi at each leaf in float64, from block sums of a cumulative sum."""
    v = np.asarray(values, dtype=float)
    n = m**depth
    if v.shape != (n,):
        raise ValueError(f"expected {n} leaf values, got shape {v.shape}")
    prefix = np.concatenate([[0.0], np.cumsum(v)])
    out = np.full(n, -np.inf)
    for d in range(depth + 1):
        width = m ** (depth - d)
        starts = np.arange(0, n, width)
        avg = (prefix[starts + width] - prefix[starts]) / width
        out = np.maximum(out, np.repeat(avg, width))
    return out


def objective(mx: np.ndarray, L: float, q: float) -> float:
    """Integral of max(M phi, L)^q over [0, 1) from leaf values of M phi."""
    return float(np.mean(np.maximum(mx, L) ** q))


def eigen_residual(mx: np.ndarray, phi: np.ndarray, L: float, q: float,
                   root: float) -> float:
    """Integral of |max(M phi, L) - root * phi|^q, root = c^(1/q)."""
    return float(np.mean(np.abs(np.maximum(mx, L) - root * phi) ** q))


def omega_half(z: float) -> float:
    """omega_q(z) at q = 1/2: H(x) = (sqrt(x) + 1/sqrt(x)) / 2 inverts in closed form."""
    return z + math.sqrt(z * z - 1.0)


def bellman_half(f: float, h: float, L: float) -> float:
    """B(f, h, L) at q = 1/2, i.e. h (z + sqrt(z^2 - 1)) with z = (L^q + L^(q-1) f) / 2h."""
    z = (0.5 * math.sqrt(L) + 0.5 * f / math.sqrt(L)) / h
    return h * omega_half(z)


def eigen_root_half(f: float, h: float, L: float) -> float:
    """c^(1/q) at q = 1/2, where h c is the Bellman value."""
    return (bellman_half(f, h, L) / h) ** 2


def upper_end_ulp_step(q: float, k: float, f: float, h: float) -> float:
    """How far one ulp of B moves l_k at the upper end of its window, relative to h.

    l_k(B) = (1-k)^(1-q) (f-B)^q + k^(1-q) B^q falls to h at rho1 < f when
    d = h - k^(1-q) f^q > 0.  There (1-k)^(1-q) (f-rho1)^q is about d, so
    f - rho1 is n = (d / (1-k)^(1-q))^(1/q) / ulp(f) ulps, and one ulp changes
    the first term by about q d / n.  When that is large, the float nearest
    the root can leave l_k below h by as much: the window end is
    ill-conditioned in floating point.  0 when the window reaches f.
    """
    d = h - k ** (1.0 - q) * f**q
    if d <= 0.0:
        return 0.0
    n = (d / (1.0 - k) ** (1.0 - q)) ** (1.0 / q) / math.ulp(f)
    return q * d / max(n, 1.0) / h
