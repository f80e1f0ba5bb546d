"""Kernel checks against closed forms.

For q = 1/2 the inverse of H is explicit: omega(z) = z + sqrt(z^2 - 1).
Frozen constants below were produced by notes kept outside the package from
that closed form plus dense-grid maximization, independent of this code.
"""

import math

import numpy as np
import pytest

from bklab import (
    BellmanParams,
    DomainError,
    bellman_value,
    chi_lambda,
    ell_k,
    h_q,
    k0,
    maximize_r_k,
    omega_q,
    r_k,
    r_q_mu,
    rho_interval,
    sigma_q,
    u_q,
)


def omega_half(z):
    return z + math.sqrt(z * z - 1.0)


class TestHq:
    def test_closed_values(self):
        assert h_q(4.0, 0.5) == pytest.approx(1.25, abs=1e-15)
        assert h_q(9.0, 0.5) == pytest.approx(5.0 / 3.0, abs=1e-15)
        assert h_q(1.0, 0.37) == pytest.approx(1.0, abs=1e-15)

    def test_monotone(self):
        for q in (0.1, 0.5, 0.9):
            zs = np.linspace(1.0, 50.0, 400)
            vals = [h_q(z, q) for z in zs]
            assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            h_q(0.5, 0.5)
        with pytest.raises(DomainError):
            h_q(2.0, 1.0)
        with pytest.raises(DomainError):
            h_q(2.0, 0.0)


class TestOmega:
    def test_against_closed_form_half(self):
        for z in (1.0, 1.1, 1.25, 2.5, 10.0, 1e4):
            assert omega_q(z, 0.5) == pytest.approx(omega_half(z), rel=1e-12)
        assert omega_q(1.25, 0.5) == pytest.approx(2.0, rel=1e-13)
        assert omega_q(2.5, 0.5) == pytest.approx(4.7912878474779195, rel=1e-12)

    def test_roundtrip_identity(self):
        # omega(H(y^(1/q))) = y, checked on a (q, y) grid
        for q in (0.15, 0.3, 0.5, 0.7, 0.85):
            for y in (1.0, 1.5, 2.0, 5.0, 20.0):
                z = h_q(y ** (1.0 / q), q)
                assert omega_q(z, q) == pytest.approx(y, rel=1e-12), (q, y)

    def test_small_q_no_overflow(self):
        # y-space bisection keeps everything finite even when H^{-1} overflows
        val = omega_q(50.0, 0.001)
        assert math.isfinite(val)
        resid = (1.0 - 0.001) * val + 0.001 * val ** (1.0 - 1000.0) - 50.0
        assert abs(resid) < 1e-9 * 50.0

    def test_monotone_concave(self):
        for q in (0.2, 0.5, 0.8):
            zs = np.linspace(1.0, 30.0, 500)
            vals = np.array([omega_q(z, q) for z in zs])
            d1 = np.diff(vals)
            assert np.all(d1 > 0)
            assert np.all(np.diff(d1) < 1e-10)

    def test_u_monotone(self):
        assert u_q(1.25, 0.5) == pytest.approx(1.6, rel=1e-12)
        for q in (0.3, 0.6):
            xs = np.linspace(1.0, 20.0, 300)
            vals = [u_q(x, q) for x in xs]
            assert all(b > a - 1e-14 for a, b in zip(vals, vals[1:]))


class TestSigma:
    def test_equals_ratio_of_h(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            q = rng.uniform(0.05, 0.95)
            k = rng.uniform(0.05, 0.95)
            x = rng.uniform(1.0 + 1e-6, 1.0 / k - 1e-9 * (1 / k - 1))
            y = x * (1.0 - k) / (1.0 - k * x)
            expect = h_q(y, q) / h_q(x, q)
            assert sigma_q(k, x, q) == pytest.approx(expect, rel=1e-12)

    def test_value_at_one(self):
        assert sigma_q(0.3, 1.0, 0.4) == pytest.approx(1.0, abs=1e-12)
        assert sigma_q(0.7, 1.0, 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            sigma_q(0.5, 2.5, 0.5)
        with pytest.raises(DomainError):
            sigma_q(1.2, 1.1, 0.5)


class TestChiLambda:
    def test_frozen_root(self):
        # lam = 1.25, k = 0.6, q = 0.5: dense-scan frozen value
        assert chi_lambda(1.25, 0.6, 0.5) == pytest.approx(1.4394203524648457, abs=1e-6)

    def test_defining_equation(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            q = rng.uniform(0.1, 0.9)
            k = rng.uniform(0.05, 0.9)
            lam = rng.uniform(1.01, 6.0)
            x = chi_lambda(lam, k, q)
            assert 1.0 < x < 1.0 / k
            y = x * (1.0 - k) / (1.0 - k * x)
            assert h_q(y, q) == pytest.approx(lam * h_q(x, q), rel=1e-10)

    def test_matches_sigma_root(self):
        x = chi_lambda(1.25, 0.6, 0.5)
        assert sigma_q(0.6, x, 0.5) == pytest.approx(1.25, rel=1e-10)


class TestK0:
    def test_frozen_values(self):
        assert k0(1.25, 1.2, 0.5) == pytest.approx(0.7787869747175404, rel=1e-12)
        assert k0(1.5625, 1.2, 0.5) == pytest.approx(0.8085222512360799, rel=1e-12)

    def test_sigma_at_k0_is_lam(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            q = rng.uniform(0.1, 0.9)
            lam = rng.uniform(1.02, 4.0)
            mu = rng.uniform(1.02, 3.0)
            kk = k0(lam, mu, q)
            assert 0.0 < kk < 1.0
            assert sigma_q(kk, mu, q) == pytest.approx(lam, rel=1e-8)

    def test_chi_lambda_at_k0_is_mu(self):
        kk = k0(1.5625, 1.2, 0.5)
        assert chi_lambda(1.5625, kk, 0.5) == pytest.approx(1.2, abs=1e-8)

    def test_matches_bisection_root_in_k(self):
        # independent recovery of k0: solve sigma_q(k, mu) = lam in k by bisection
        for (lam, mu, q) in [(1.25, 1.2, 0.5), (2.0, 1.5, 0.3), (1.7, 1.1, 0.8)]:
            lo, hi = 1e-9, 1.0 - 1e-9
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if mid >= 1.0 / mu:
                    hi = mid
                    continue
                if sigma_q(mid, mu, q) < lam:
                    lo = mid
                else:
                    hi = mid
            assert k0(lam, mu, q) == pytest.approx(0.5 * (lo + hi), abs=1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            k0(0.9, 1.2, 0.5)
        with pytest.raises(DomainError):
            k0(1.25, 0.99, 0.5)


class TestRQMu:
    def test_constrained_max_value(self):
        # along sigma = lam the max of r_q_mu is omega(lam H(mu)) / lam at (k0, mu)
        for (lam, mu, q) in [(1.25, 1.2, 0.5), (1.8, 1.4, 0.35)]:
            kk = k0(lam, mu, q)
            at_opt = r_q_mu(kk, mu, q, mu)
            target = omega_q(lam * h_q(mu, q), q) / lam
            assert at_opt == pytest.approx(target, rel=1e-9)
            # nearby points on the curve k -> (k, chi_lambda(lam, k)) do not beat it
            for dk in (-0.05, -0.01, 0.01, 0.05):
                k = kk + dk
                if not (0.0 < k < 1.0):
                    continue
                x = chi_lambda(lam, k, q)
                assert r_q_mu(k, x, q, mu) <= at_opt + 1e-10

    def test_domain(self):
        with pytest.raises(DomainError):
            r_q_mu(0.5, 0.9, 0.5, 1.2)


class TestRk:
    def test_ell_peak(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            q = rng.uniform(0.1, 0.9)
            k = rng.uniform(0.05, 0.95)
            f = rng.uniform(0.5, 3.0)
            assert ell_k(k * f, k, q, f) == pytest.approx(f**q, rel=1e-12)
            b = rng.uniform(0.0, f)
            assert ell_k(b, k, q, f) <= f**q * (1.0 + 1e-12)

    def test_rho_window(self):
        rho0, rho1 = rho_interval(0.6, 0.5, 1.0, 0.8)
        assert 0.0 <= rho0 < 0.6 < rho1 <= 1.0
        assert ell_k(rho0, 0.6, 0.5, 1.0) == pytest.approx(0.8, rel=1e-9)
        assert ell_k(rho1, 0.6, 0.5, 1.0) == pytest.approx(0.8, rel=1e-9)
        # large h pins the window ends strictly inside; tiny h opens it fully
        rho0, rho1 = rho_interval(0.5, 0.5, 1.0, 0.1)
        assert rho0 == 0.0 and rho1 == 1.0

    def test_frozen_max(self):
        bstar, val = maximize_r_k(0.6, 0.5, 1.0, 0.8)
        assert bstar == pytest.approx(0.8636522114789074, abs=2e-6)
        assert val == pytest.approx(1.164050964996, abs=1e-9)

    def test_max_beats_grid(self):
        for (k, q, f, h) in [(0.6, 0.5, 1.0, 0.8), (0.3, 0.25, 2.0, 1.1), (0.8, 0.7, 1.0, 0.9)]:
            bstar, val = maximize_r_k(k, q, f, h)
            rho0, rho1 = rho_interval(k, q, f, h)
            assert rho0 <= bstar <= rho1
            assert bstar > k * f
            for b in np.linspace(rho0, rho1, 2001):
                assert r_k(float(b), k, q, f, h) <= val * (1.0 + 1e-9)

    def test_sandwich_at_max(self):
        bstar, _ = maximize_r_k(0.6, 0.5, 1.0, 0.8)
        low = (1.0 - 0.6) ** 0.5 * (1.0 - bstar) ** 0.5
        assert low < 0.8 < ell_k(bstar, 0.6, 0.5, 1.0)

    def test_outside_window_raises(self):
        rho0, rho1 = rho_interval(0.6, 0.5, 1.0, 0.8)
        with pytest.raises(DomainError):
            r_k(rho1 + 1e-3, 0.6, 0.5, 1.0, 0.8)

    # rho1 sits about 15000 ulps below f, where one ulp of B moves l_k by
    # about 5e-8 of h: the float nearest the root can fall outside the window
    ILL_CONDITIONED = (0.15281977044513048, 0.7977415314164339,
                       0.8641135814066214, 0.8116373519437352)

    def test_window_ends_accepted_when_ill_conditioned(self):
        q, k, f, h = self.ILL_CONDITIONED
        rho0, rho1 = rho_interval(k, q, f, h)
        assert ell_k(rho0, k, q, f) >= h and ell_k(rho1, k, q, f) >= h
        assert r_k(rho1, k, q, f, h) > 0.0
        assert r_k(rho0, k, q, f, h) > 0.0

    def test_clearly_outside_raises_when_ill_conditioned(self):
        q, k, f, h = self.ILL_CONDITIONED
        rho0, _ = rho_interval(k, q, f, h)
        with pytest.raises(DomainError):
            r_k(0.5 * rho0, k, q, f, h)


class TestBellmanValue:
    def test_frozen_value(self):
        assert bellman_value(0.5, 1.0, 0.8, 1.2) == pytest.approx(1.6110627372939086, rel=1e-12)

    def test_closed_form_half(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            f = rng.uniform(0.3, 2.0)
            h = rng.uniform(0.2, 1.0) * f**0.5
            L = f * rng.uniform(1.0, 3.0)
            z = (0.5 * L**0.5 + 0.5 * L**-0.5 * f) / h
            assert bellman_value(0.5, f, h, L) == pytest.approx(h * omega_half(z), rel=1e-12)

    def test_reduces_to_three_variable_at_L_equals_f(self):
        # L = f: value is h * omega(f^q / h)
        for q in (0.3, 0.5, 0.7):
            v = bellman_value(q, 1.0, 0.6, 1.0)
            assert v == pytest.approx(0.6 * omega_q(1.0 / 0.6, q), rel=1e-12)

    def test_monotone_in_L(self):
        vals = [bellman_value(0.5, 1.0, 0.8, L) for L in np.linspace(1.0, 4.0, 50)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            bellman_value(0.5, 1.0, 1.2, 1.2)  # h > f^q
        with pytest.raises(DomainError):
            bellman_value(0.5, 1.0, 0.8, 0.9)  # L < f
        with pytest.raises(DomainError):
            bellman_value(0.5, 1.0, 0.0, 1.2)


class TestPinnedBits:
    """Exact bits of the bisection-backed functions, recorded while the
    bisection still tested a relative tolerance at every step."""

    OMEGA = [((1.25, 0.5), "0x1.fffffffffffffp+0"),
             ((50.0, 0.001), "0x1.906680a401067p+5"),
             ((3.7, 0.3), "0x1.51b84cc3831c8p+2"),
             ((1e4, 0.85), "0x1.0469de5b325f2p+16"),
             ((1.0000001, 0.6), "0x1.0023e77f325ccp+0")]
    CHI = [((1.25, 0.6, 0.5), "0x1.707dda2b0889ep+0"),
           ((2.0, 0.3, 0.2), "0x1.a425876818a70p+1"),
           ((5.5, 0.1, 0.8), "0x1.2936460a197c2p+3"),
           ((1.01, 0.9, 0.4), "0x1.06a8c1bb515d4p+0"),
           ((3.0, 0.05, 0.65), "0x1.0ee7c2a767e08p+4")]
    # (k, q, f, h) -> rho_interval, maximize_r_k; the fourth is TestRk.ILL_CONDITIONED
    KQFH = [((0.6, 0.5, 1.0, 0.8),
             ("0x1.d8a96971d209cp-5", "0x1.ff21719a09c8ep-1"),
             ("0x1.ba309f66d70bdp-1", "0x1.29ff3e7989049p+0")),
            ((0.3, 0.25, 2.0, 1.1),
             ("0x1.c1ddc30c0cf58p-5", "0x1.778f7bfe368d2p+0"),
             ("0x1.34793d07fc6c3p+0", "0x1.08f504f56aa84p-1")),
            ((0.8, 0.7, 1.0, 0.9),
             ("0x1.5a2b33824b910p-2", "0x1.0000000000000p+0"),
             ("0x1.d36a89306718ap-1", "0x1.8c1fa694dbdcep+0")),
            ((0.7977415314164339, 0.15281977044513048, 0.8641135814066214, 0.8116373519437352),
             ("0x1.4dbabfe3602a9p-4", "0x1.ba6d186853d25p-1"),
             ("0x1.ae379c3924355p-1", "0x1.dc586cf55df01p-1")),
            ((0.2, 0.3, 2.0, 1.0),
             ("0x0.0p+0", "0x1.a6ecee92a7dd0p+0"),
             ("0x1.5da710cd9d39ap+0", "0x1.eff8ceed14f6cp-2"))]
    BELLMAN = [((0.5, 1.0, 0.8, 1.2), "0x1.9c6e9b887b48ap+0"),
               ((0.3, 2.0, 1.1, 3.0), "0x1.965871974036fp+0"),
               ((0.8, 1.0, 0.5, 1.0), "0x1.e5c449aa21f31p+1"),
               ((0.05, 1.0, 0.95, 2.0), "0x1.0e47b9b774f9ep+0"),
               ((0.95, 0.5, 0.4, 5.0), "0x1.b55662f36f5d2p+2")]

    def test_omega(self):
        assert [omega_q(*a).hex() for a, _ in self.OMEGA] == [w for _, w in self.OMEGA]

    def test_chi_lambda(self):
        assert [chi_lambda(*a).hex() for a, _ in self.CHI] == [w for _, w in self.CHI]

    def test_rho_interval_and_maximize_r_k(self):
        for args, rho, best in self.KQFH:
            assert tuple(x.hex() for x in rho_interval(*args)) == rho
            assert tuple(x.hex() for x in maximize_r_k(*args)) == best

    def test_bellman_value(self):
        assert [bellman_value(*a).hex() for a, _ in self.BELLMAN] == [w for _, w in self.BELLMAN]


class TestBellmanParams:
    def test_derived_constants(self):
        p = BellmanParams(q=0.5, f=1.0, h=0.8, L=1.2)
        assert p.c == pytest.approx(2.0138284216173856, rel=1e-12)
        assert p.value == pytest.approx(1.6110627372939086, rel=1e-12)
        assert p.eigenvalue_root == pytest.approx(4.055504911713971, rel=1e-12)
        assert p.tau == pytest.approx(0.2958941059432341, rel=1e-12)
        assert p.k0 == pytest.approx(0.7787869747175404, rel=1e-12)
        assert p.lam == pytest.approx(1.25)
        assert p.mu == pytest.approx(1.2)

    def test_tau_identity(self):
        # (f - k0 L) / (1 - k0) equals L / c^(1/q)
        rng = np.random.default_rng(31)
        for _ in range(60):
            q = rng.uniform(0.15, 0.85)
            f = rng.uniform(0.5, 2.0)
            h = rng.uniform(0.35, 0.98) * f**q
            L = f * rng.uniform(1.05, 2.5)
            p = BellmanParams(q=q, f=f, h=h, L=L)
            lhs = (p.f - p.k0 * p.L) / (1.0 - p.k0)
            assert lhs == pytest.approx(p.tau, rel=1e-8), (q, f, h, L)

    def test_ranges(self):
        p = BellmanParams(q=0.5, f=1.0, h=0.8, L=1.2)
        assert p.c >= 1.0
        assert 0.0 < p.k0 < 1.0
        assert 0.0 < p.tau < p.f

    def test_validation(self):
        with pytest.raises(DomainError):
            BellmanParams(q=1.2, f=1.0, h=0.5, L=1.0)
        with pytest.raises(DomainError):
            BellmanParams(q=0.5, f=-1.0, h=0.5, L=1.0)
        with pytest.raises(DomainError):
            BellmanParams(q=0.5, f=1.0, h=1.5, L=1.2)
        with pytest.raises(DomainError):
            BellmanParams(q=0.5, f=1.0, h=0.8, L=0.5)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: omega_q(0.5, 0.5), id="omega_q-z-below-1"),
    pytest.param(lambda: chi_lambda(1.0, 0.5, 0.5), id="chi_lambda-lam-1"),
    pytest.param(lambda: chi_lambda(1.25, 1.0, 0.5), id="chi_lambda-k-1"),
    pytest.param(lambda: r_q_mu(0.0, 1.5, 0.5, 1.2), id="r_q_mu-k-0"),
    pytest.param(lambda: r_q_mu(0.5, 1.5, 0.5, 0.5), id="r_q_mu-mu-below-1"),
    pytest.param(lambda: ell_k(1.5, 0.5, 0.5, 1.0), id="ell_k-B-above-f"),
    pytest.param(lambda: r_k(1.5, 0.5, 0.5, 1.0, 0.8), id="r_k-B-above-f"),
    pytest.param(lambda: rho_interval(1.0, 0.5, 1.0, 0.8), id="rho_interval-k-1"),
    pytest.param(lambda: rho_interval(0.5, 0.5, -1.0, 0.8), id="rho_interval-f-negative"),
    pytest.param(lambda: rho_interval(0.5, 0.5, 1.0, 1.5), id="rho_interval-h-above-f^q"),
])
def test_input_checks_raise_domain_error(call):
    with pytest.raises(DomainError):
        call()
