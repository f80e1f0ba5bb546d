"""Scalar machinery for the L^q Bellman problem of the dyadic maximal operator.

Everything here is a plain function of real arguments.  The central pair is

    H(z) = (1-q) z^q + q z^(q-1)        for z >= 1,
    omega(z) = (H^{-1}(z))^q,

with 0 < q < 1 fixed per call.  H is strictly increasing from H(1) = 1, so
omega is well defined on [1, inf), strictly increasing and strictly concave.
The Bellman value of the maximal operator with mean f, q-mean h and threshold
L >= f is

    B(f, h, L) = h * omega(((1-q) L^q + q L^(q-1) f) / h),

and the remaining functions (sigma, chi_lambda, k0, r_q_mu, r_k) describe the
two-parameter reduction used to locate near-extremizers: k is the measure of
the excess set, x the ratio of the top average to the threshold scale.

Inversions are done by bisection in the variable y = z^q, which keeps every
intermediate quantity bounded even for q near 0 (y stays in [1, z/(1-q) + 1]
while z^(1/q) itself may overflow).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConvergenceError, DomainError

_BISECT_MAX_ITER = 200


def _check_q(q: float) -> None:
    if not (0.0 < q < 1.0):
        raise DomainError(f"q must lie in (0, 1), got {q}")


def _bracket(fn, lo: float, hi: float) -> tuple[float, float]:
    """Shrink [lo, hi] around a root of fn, keeping fn(lo) <= 0 <= fn(hi).

    Runs to float exhaustion: omega's equation has a curvature signal of
    order 1e-12 on its near-linear stretches at large z, which a relative
    tolerance would drown.
    """
    flo = fn(lo)
    fhi = fn(hi)
    if flo > 0.0 or fhi < 0.0:
        raise ConvergenceError(
            f"root not bracketed on [{lo}, {hi}]: f(lo)={flo}, f(hi)={fhi}"
        )
    if flo == 0.0:
        return lo, lo
    if fhi == 0.0:
        return hi, hi
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        fmid = fn(mid)
        if fmid == 0.0:
            return mid, mid
        if fmid < 0.0:
            lo = mid
        else:
            hi = mid
    return lo, hi


def _bisect(fn, lo: float, hi: float) -> float:
    """Root of fn on [lo, hi] assuming fn(lo) <= 0 <= fn(hi)."""
    lo, hi = _bracket(fn, lo, hi)
    return 0.5 * (lo + hi)


def h_q(z: float, q: float) -> float:
    """Transfer function H(z) = (1-q) z^q + q z^(q-1), strictly increasing on [1, inf)."""
    _check_q(q)
    if z < 1.0:
        raise DomainError(f"h_q needs z >= 1, got {z}")
    return (1.0 - q) * z**q + q * z ** (q - 1.0)


def omega_q(z: float, q: float) -> float:
    """omega(z) = (H^{-1}(z))^q for z >= 1.

    Solved as the root y of (1-q) y + q y^(1 - 1/q) = z on [1, z/(1-q) + 1];
    the upper endpoint gives (1-q) y >= z, so the bracket is guaranteed.
    """
    _check_q(q)
    if z <= 1.0:
        if z > 1.0 - 1e-12:
            return 1.0
        raise DomainError(f"omega_q needs z >= 1, got {z}")

    def resid(y: float) -> float:
        return (1.0 - q) * y + q * y ** (1.0 - 1.0 / q) - z

    return _bisect(resid, 1.0, z / (1.0 - q) + 1.0)


def u_q(x: float, q: float) -> float:
    """U(x) = omega(x) / x, strictly increasing on [1, inf)."""
    return omega_q(x, q) / x


def sigma_q(k: float, x: float, q: float) -> float:
    """Ratio H(x (1-k) / (1 - k x)) / H(x) in closed form.

    Defined for 0 < k < 1 and 0 < x < 1/k; equals 1 at x = 1.
    """
    _check_q(q)
    if not (0.0 < k < 1.0):
        raise DomainError(f"sigma_q needs 0 < k < 1, got k={k}")
    if not (0.0 < x < 1.0 / k):
        raise DomainError(f"sigma_q needs 0 < x < 1/k = {1.0 / k}, got x={x}")
    num = (1.0 - q) * x + q - k * x
    den = (1.0 - k) ** (1.0 - q) * (1.0 - k * x) ** q * ((1.0 - q) * x + q)
    return num / den


def chi_lambda(lam: float, k: float, q: float) -> float:
    """The unique x in (1, 1/k) with H(x (1-k)/(1 - k x)) = lam * H(x).

    Bisection on the defining equation; the residual at the returned root is
    below 1e-10 relative to lam * H(x).
    """
    _check_q(q)
    if lam <= 1.0:
        raise DomainError(f"chi_lambda needs lam > 1, got {lam}")
    if not (0.0 < k < 1.0):
        raise DomainError(f"chi_lambda needs 0 < k < 1, got k={k}")

    def resid(x: float) -> float:
        y = x * (1.0 - k) / (1.0 - k * x)
        return h_q(y, q) - lam * h_q(x, q)

    span = 1.0 / k - 1.0
    eps = 1e-13 * span
    root = _bisect(resid, 1.0 + eps, 1.0 / k - eps)
    rel = abs(resid(root)) / (lam * h_q(root, q))
    if rel > 1e-10:
        raise ConvergenceError(f"chi_lambda residual {rel} above tolerance at x={root}")
    return root


def k0(lam: float, mu: float, q: float) -> float:
    """Excess-set measure at which chi_lambda is stationary in k.

    k0 = (omega(lam H(mu))^(1/q) - mu) / (mu (omega(lam H(mu))^(1/q) - 1)),
    computed via t = omega^(-1/q) to stay finite for small q.  Satisfies
    sigma_q(k0, mu) = lam and chi_lambda(lam, k0) = mu.
    """
    _check_q(q)
    if lam <= 1.0:
        raise DomainError(f"k0 needs lam > 1, got {lam}")
    if mu <= 1.0:
        raise DomainError(f"k0 needs mu > 1, got {mu}")
    w = omega_q(lam * h_q(mu, q), q)
    t = w ** (-1.0 / q)  # underflows harmlessly to 0 for small q
    if mu * t >= 1.0:
        raise DomainError(f"k0 nonpositive for lam={lam}, mu={mu} (omega^(1/q) <= mu)")
    return (1.0 - mu * t) / (mu * (1.0 - t))


def r_q_mu(k: float, x: float, q: float, mu: float) -> float:
    """Two-variable reduction R(k, x) = (x(1-k)/(1-kx))^q / sigma(k,x) + (mu^q - x^q)(1-k).

    Domain 0 < k < 1 < x < 1/k.  Its constrained maximum over the curve
    sigma = lam is omega(lam H(mu)) / lam, attained at (k0(lam, mu), mu).
    """
    _check_q(q)
    if not (0.0 < k < 1.0):
        raise DomainError(f"r_q_mu needs 0 < k < 1, got k={k}")
    if not (1.0 < x < 1.0 / k):
        raise DomainError(f"r_q_mu needs 1 < x < 1/k = {1.0 / k}, got x={x}")
    if mu < 1.0:
        raise DomainError(f"r_q_mu needs mu >= 1, got {mu}")
    y = x * (1.0 - k) / (1.0 - k * x)
    return y**q / sigma_q(k, x, q) + (mu**q - x**q) * (1.0 - k)


def _check_fh(q: float, f: float, h: float) -> None:
    """Admissible moments: 0 < q < 1, f > 0 and 0 < h <= f^q (Hoelder)."""
    _check_q(q)
    if f <= 0.0:
        raise DomainError(f"need f > 0, got {f}")
    if not (0.0 < h <= f**q * (1.0 + 1e-12)):
        raise DomainError(f"need 0 < h <= f^q = {f**q}, got h={h}")


def _check_fhk(k: float, q: float, f: float, h: float) -> None:
    _check_fh(q, f, h)
    if not (0.0 < k < 1.0):
        raise DomainError(f"need 0 < k < 1, got k={k}")


def ell_k(b: float, k: float, q: float, f: float) -> float:
    """l_k(B) = (1-k)^(1-q) (f-B)^q + k^(1-q) B^q on [0, f], peak f^q at B = k f."""
    _check_q(q)
    if not (0.0 <= b <= f):
        raise DomainError(f"ell_k needs 0 <= B <= f, got B={b}")
    return (1.0 - k) ** (1.0 - q) * (f - b) ** q + k ** (1.0 - q) * b**q


def rho_interval(k: float, q: float, f: float, h: float) -> tuple[float, float]:
    """Endpoints [rho0, rho1] of the window where l_k(B) >= h.

    l_k increases on (0, kf) and decreases on (kf, f), so each endpoint is
    either a boundary value or a one-sided bisection root of l_k(B) = h.
    Each root is taken from the side of its final bracket where l_k >= h:
    near B = f at small q one ulp of B can move l_k by many ulps of h, so
    the midpoint of the bracket may lie outside the window.
    """
    _check_fhk(k, q, f, h)
    h = min(h, f**q)
    if ell_k(0.0, k, q, f) >= h:
        rho0 = 0.0
    else:
        _, rho0 = _bracket(lambda b: ell_k(b, k, q, f) - h, 0.0, k * f)
    if ell_k(f, k, q, f) >= h:
        rho1 = f
    else:
        rho1, _ = _bracket(lambda b: h - ell_k(b, k, q, f), k * f, f)
    return rho0, rho1


def r_k(b: float, k: float, q: float, f: float, h: float) -> float:
    """One-variable profile whose maximum over [rho0, rho1] drives the lower bound.

    Two branches: below the crossing of (1-k)^(1-q)(f-B)^q with h the value is
    k^(1-q) B^q / (1-q); above it, s * omega(k^(1-q) B^q / s) with
    s = h - (1-k)^(1-q) (f-B)^q.
    """
    _check_fhk(k, q, f, h)
    if not (0.0 <= b <= f):
        raise DomainError(f"r_k needs 0 <= B <= f, got B={b}")
    low = (1.0 - k) ** (1.0 - q) * (f - b) ** q
    if h <= low:
        return k ** (1.0 - q) * b**q / (1.0 - q)
    top = k ** (1.0 - q) * b**q
    if low + top < h * (1.0 - 1e-9):
        # l_k(B) < h: outside the admissible window
        raise DomainError(f"r_k: B={b} outside [rho0, rho1] (l_k(B) = {low + top} < h = {h})")
    s = h - low
    return s * omega_q(max(top / s, 1.0), q)


def maximize_r_k(k: float, q: float, f: float, h: float) -> tuple[float, float]:
    """Maximizer and maximum of r_k over its admissible window.

    The argmax is B* = chi_lambda(f^q/h, k) * k * f, with value
    h * omega((f^q/h) H(X)) - (1-k) f^q X^q.  Also certifies the bracketing
    (1-k)^(1-q) (f-B*)^q < h <= l_k(B*) before returning.
    """
    _check_fhk(k, q, f, h)
    lam = f**q / h
    if lam <= 1.0 + 1e-14:
        # h = f^q: window degenerates to B = k f
        return k * f, k * f**q
    x = chi_lambda(lam, k, q)
    bstar = x * k * f
    value = h * omega_q(lam * h_q(x, q), q) - (1.0 - k) * f**q * x**q
    low = (1.0 - k) ** (1.0 - q) * (f - bstar) ** q
    if not (low < h <= ell_k(bstar, k, q, f) * (1.0 + 1e-12)):
        raise ConvergenceError(
            f"maximize_r_k: stationary point failed its bracket certificate "
            f"(low={low}, h={h}, ell={ell_k(bstar, k, q, f)})"
        )
    direct = r_k(bstar, k, q, f, h)
    if abs(direct - value) > 1e-9 * max(1.0, abs(value)):
        raise ConvergenceError(
            f"maximize_r_k: closed form {value} disagrees with r_k(B*) = {direct}"
        )
    return bstar, value


def bellman_value(q: float, f: float, h: float, L: float) -> float:
    """B(f, h, L) = h * omega(((1-q) L^q + q L^(q-1) f) / h) for L >= f."""
    return BellmanParams(q=q, f=f, h=h, L=L).value


@dataclass(frozen=True)
class BellmanParams:
    """Problem data (q, f, h, L) with the derived constants used everywhere.

    c is the value of omega at the Bellman argument, so the Bellman value is
    h * c; tau = L / c^(1/q) is the flat level of near-extremizers off the
    excess set, and k0 the limiting measure of that set.
    """

    q: float
    f: float
    h: float
    L: float

    def __post_init__(self) -> None:
        _check_fh(self.q, self.f, self.h)
        if self.L < self.f:
            raise DomainError(f"need L >= f, got L={self.L} < f={self.f}")

    @property
    def lam(self) -> float:
        return self.f**self.q / self.h

    @property
    def mu(self) -> float:
        return self.L / self.f

    @property
    def c(self) -> float:
        z = ((1.0 - self.q) * self.L**self.q + self.q * self.L ** (self.q - 1.0) * self.f) / self.h
        return omega_q(z, self.q)

    @property
    def value(self) -> float:
        return self.h * self.c

    @property
    def eigenvalue_root(self) -> float:
        """c^(1/q): the factor relating max(M phi, L) to phi on near-extremizers."""
        return self.c ** (1.0 / self.q)

    @property
    def tau(self) -> float:
        return self.L / self.eigenvalue_root

    @property
    def k0(self) -> float:
        if self.L == self.f:
            return 1.0
        return k0(self.lam, self.mu, self.q)
