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

`_bracket` is the one general bisection.  omega_q, on which every Bellman
value and every r_k point rests, walks `_bracket`'s midpoints with the residual
inline, evaluating it only where a certified band around a Newton estimate of
the root leaves its float sign open (the residual is convex).  So it returns
`_bracket`'s bits; tests/test_kernel.py checks that against `_bracket` driven
by the plain residual.  chi_lambda and rho_interval call `_bracket` with
residuals whose constant factors are computed once.
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
    if not (1.0 <= z < math.inf):
        raise DomainError(f"h_q needs finite z >= 1, got {z}")
    return (1.0 - q) * z**q + q * z ** (q - 1.0)


def omega_q(z: float, q: float) -> float:
    """omega(z) = (H^{-1}(z))^q for finite z >= 1.

    Solved as the root y of f(y) = (1-q) y + q y^(1 - 1/q) - z on
    [1, z/(1-q) + 1]; the upper endpoint gives (1-q) y >= z, up to a rounding
    that hi steps past.  A root past half the float range overflows the
    midpoint: DomainError.  The loop takes `_bisect`'s steps, so the same bits,
    but skips f where its float sign is certified.  On the bracket float f is
    within E = 8u(z + 1) of f (u = 2^-53, pow within 1 ulp, |f| <= z + 1).  f is
    convex, so if float f gives f(1), f(yl) < -tol and f(yh) > tol at 1 <= yl < yh
    around a Newton estimate, tol = 2^-47 (z + 1) = 4E, then f < -E at midpoints
    in [1, yl] and f > E at those >= yh.  Those steps count toward _BISECT_MAX_ITER.
    """
    _check_q(q)
    if not (1.0 < z < math.inf):
        if 1.0 - 1e-12 < z <= 1.0:
            return 1.0
        raise DomainError(f"omega_q needs finite z >= 1, got {z}")
    a = 1.0 - q
    e = 1.0 - 1.0 / q
    lo = 1.0
    hi = z / a + 1.0
    flo = a * lo + q * lo**e - z
    fhi = a * hi + q * hi**e - z
    while fhi < 0.0:  # past z ~ 1e15, (1-q) hi can round below z; flo < 0 as z > 1
        hi = math.nextafter(hi, math.inf)
        fhi = a * hi + q * hi**e - z
    if flo == 0.0:
        hi = lo
    elif fhi == 0.0:
        lo = hi
    else:
        n = 0  # leading steps the certified band decides
        tol = 2.0**-47 * (z + 1.0)
        # the root of f's quadratic model at y = 1 lies left of f's, as f''' < 0
        y = min(hi, 1.0 + math.sqrt(2.0 * q * (z - 1.0) / a)) if flo < -tol else 1.0
        for _ in range(8 if y > 1.0 else 0):  # Newton; unconverged: plain bisection
            p = y**e
            d = a - a * p / y
            step = (a * y + q * p - z) / d
            y -= step
            if abs(step) <= 2.0**-40 * y:
                w = 2.0 * tol / d + 2.0 * abs(step)
                yl, yh = max(1.0, y - w), y + w
                if yl < yh and a * yl + q * yl**e - z < -tol and a * yh + q * yh**e - z > tol:
                    for n in range(_BISECT_MAX_ITER):
                        mid = 0.5 * (lo + hi)
                        if mid <= yl:
                            lo = mid
                        elif mid >= yh:
                            hi = mid
                        else:
                            break
                    else:
                        n = _BISECT_MAX_ITER
                break
        for _ in range(n, _BISECT_MAX_ITER):
            mid = 0.5 * (lo + hi)
            if mid <= lo or mid >= hi:
                break
            fmid = a * mid + q * mid**e - z
            if fmid == 0.0:
                lo = hi = mid
                break
            if fmid < 0.0:
                lo = mid
            else:
                hi = mid
    root = 0.5 * (lo + hi)  # inf once the root passes half the float range
    if root == math.inf:
        raise DomainError(f"omega_q overflows a float at z={z}, q={q}: root near z/(1-q)")
    return root


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
    if not (1.0 < lam < math.inf):
        raise DomainError(f"chi_lambda needs finite lam > 1, got {lam}")
    if not (0.0 < k < 1.0):
        raise DomainError(f"chi_lambda needs 0 < k < 1, got k={k}")
    a = 1.0 - q
    b = q - 1.0
    c = 1.0 - k

    def resid(x: float) -> float:
        # H(y) - lam H(x), with h_q's expression written out
        y = x * c / (1.0 - k * x)
        return a * y**q + q * y**b - lam * (a * x**q + q * x**b)

    span = 1.0 / k - 1.0
    eps = 1e-13 * span
    hi = 1.0 / k - eps
    while 1.0 - k * hi <= 0.0:  # near k = 1, 1/k - eps can round to 1/k
        hi = math.nextafter(hi, 0.0)
    root = _bisect(resid, 1.0 + eps, hi)
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
    if not (1.0 < lam < math.inf):
        raise DomainError(f"k0 needs finite lam > 1, got {lam}")
    if not (1.0 < mu < math.inf):
        raise DomainError(f"k0 needs finite mu > 1, got {mu}")
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
    """Admissible moments: 0 < q < 1, finite f > 0 and 0 < h <= f^q (Hoelder)."""
    _check_q(q)
    if not (0.0 < f < math.inf):
        raise DomainError(f"need finite f > 0, got {f}")
    if not (0.0 < h <= f**q * (1.0 + 1e-12)):
        raise DomainError(f"need 0 < h <= f^q = {f**q}, got h={h}")


def _check_fhk(k: float, q: float, f: float, h: float) -> None:
    _check_fh(q, f, h)
    if not (0.0 < k < 1.0):
        raise DomainError(f"need 0 < k < 1, got k={k}")


def ell_k(b: float, k: float, q: float, f: float) -> float:
    """l_k(B) = (1-k)^(1-q) (f-B)^q + k^(1-q) B^q on [0, f], peak f^q at B = k f."""
    _check_q(q)
    if not (0.0 < k < 1.0):
        raise DomainError(f"ell_k needs 0 < k < 1, got k={k}")
    if not (0.0 < f < math.inf):
        raise DomainError(f"ell_k needs finite f > 0, got f={f}")
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
    p = 1.0 - q
    wl = (1.0 - k) ** p
    wk = k**p
    # the residuals write ell_k's expression out, with its weights computed once
    if ell_k(0.0, k, q, f) >= h:
        rho0 = 0.0
    else:
        _, rho0 = _bracket(lambda b: wl * (f - b) ** q + wk * b**q - h, 0.0, k * f)
    if ell_k(f, k, q, f) >= h:
        rho1 = f
    else:
        rho1, _ = _bracket(lambda b: h - (wl * (f - b) ** q + wk * b**q), k * f, f)
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
        if not (self.f <= self.L < math.inf):
            raise DomainError(f"need finite L >= f, got L={self.L}, f={self.f}")

    def _finite(self, value: float, name: str) -> float:
        """value, or DomainError naming the ratio that overflowed a float."""
        if value == math.inf:
            raise DomainError(f"{name} overflows a float at f={self.f}, h={self.h}, L={self.L}")
        return value

    @property
    def lam(self) -> float:
        return self._finite(self.f**self.q / self.h, "lam = f^q/h")

    @property
    def mu(self) -> float:
        return self._finite(self.L / self.f, "mu = L/f")

    @property
    def c(self) -> float:
        z = ((1.0 - self.q) * self.L**self.q + self.q * self.L ** (self.q - 1.0) * self.f) / self.h
        return omega_q(self._finite(z, "the Bellman argument z"), self.q)

    @property
    def value(self) -> float:
        return self.h * self.c

    @property
    def eigenvalue_root(self) -> float:
        """c^(1/q): the factor relating max(M phi, L) to phi on near-extremizers.

        Raises DomainError where it overflows a float (q near 0 or tiny h).
        """
        c = self.c
        try:
            return c ** (1.0 / self.q)
        except OverflowError:
            raise DomainError(
                f"c^(1/q) overflows a float: c = {c}, 1/q = {1.0 / self.q}"
            ) from None

    @property
    def tau(self) -> float:
        """L / c^(1/q); where c^(1/q) overflows, L c^(-1/q), which underflows toward 0."""
        try:
            return self.L / self.eigenvalue_root
        except DomainError:
            return self.L * self.c ** (-1.0 / self.q)

    @property
    def k0(self) -> float:
        if self.L == self.f:
            return 1.0
        # at lam = 1 (h = f^q) omega(H(mu))^(1/q) = mu, so k0 = 0
        return k0(self.lam, self.mu, self.q) if self.lam > 1.0 else 0.0
