"""Flux limiter formulas: inversion, symmetry, derivatives, boundary behaviour."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.integrate import quad

from kswave.errors import DomainError
from kswave.flux import (
    LARSON,
    LINEAR,
    RELATIVISTIC,
    FluxLimiter,
    boundary_exponent,
    g_inverse,
    g_prime,
    limiter_from_config,
    make_boundary_factor,
    make_g,
    phi,
    slope_domain,
)

REL = FluxLimiter(RELATIVISTIC, mu=1.0, c=1.0)

LIMITERS = [
    FluxLimiter(LINEAR, mu=1.0),
    FluxLimiter(LINEAR, mu=2.5),
    REL,
    FluxLimiter(RELATIVISTIC, mu=0.7, c=2.0),
    FluxLimiter(LARSON, mu=1.0, c=1.0, p=1.5),
    FluxLimiter(LARSON, mu=1.3, c=0.8, p=3.0),
]

SATURATED = [lim for lim in LIMITERS if lim.saturated]


def test_relativistic_point_values():
    # mu = c = 1: phi(0.75) = 0.75 / sqrt(1 + 0.5625) = 0.6 and back.
    assert phi(REL, 0.75) == pytest.approx(0.6, rel=1e-15)
    assert g_inverse(REL, 0.6) == pytest.approx(0.75, rel=1e-15)
    assert g_inverse(REL, 0.0) == 0.0
    assert phi(REL, 0.0) == 0.0


def test_linear_point_values():
    lim = FluxLimiter(LINEAR, mu=2.0)
    assert phi(lim, 3.0) == 6.0
    assert g_inverse(lim, 6.0) == 3.0
    assert slope_domain(lim, a=2.0, sigma=1.0) == (-math.inf, math.inf)


@pytest.mark.parametrize("lim", LIMITERS, ids=str)
def test_round_trip_phi_of_g(lim):
    rng = np.random.default_rng(42)
    c = lim.c if lim.saturated else 10.0
    ys = rng.uniform(-0.999 * c, 0.999 * c, size=1000)
    for y in ys:
        back = phi(lim, g_inverse(lim, float(y)))
        assert abs(back - y) <= 1e-10 * max(1.0, abs(y))


@pytest.mark.parametrize("lim", LIMITERS, ids=str)
def test_round_trip_g_of_phi(lim):
    rng = np.random.default_rng(7)
    for s in rng.uniform(-50.0, 50.0, size=400):
        back = g_inverse(lim, phi(lim, float(s)))
        assert abs(back - s) <= 1e-9 * max(1.0, abs(s))


@pytest.mark.parametrize("lim", LIMITERS, ids=str)
def test_oddness_exact(lim):
    rng = np.random.default_rng(3)
    c = lim.c if lim.saturated else 5.0
    for y in rng.uniform(0.0, 0.999 * c, size=200):
        assert g_inverse(lim, -float(y)) == -g_inverse(lim, float(y))
    for s in rng.uniform(0.0, 100.0, size=200):
        assert phi(lim, -float(s)) == -phi(lim, float(s))


@pytest.mark.parametrize("lim", LIMITERS, ids=str)
def test_monotonicity(lim):
    c = lim.c if lim.saturated else 20.0
    ys = np.linspace(-0.9999 * c, 0.9999 * c, 2001)
    gs = [g_inverse(lim, float(y)) for y in ys]
    assert all(b > a for a, b in zip(gs, gs[1:]))
    ss = np.linspace(-30.0, 30.0, 2001)
    ps = [phi(lim, float(s)) for s in ss]
    assert all(b > a for a, b in zip(ps, ps[1:]))


@pytest.mark.parametrize("lim", SATURATED, ids=str)
def test_phi_saturates(lim):
    # at s = 1e300 the value rounds to c itself, so <= rather than <
    assert abs(phi(lim, 1e300)) <= lim.c
    assert phi(lim, 1e300) == pytest.approx(lim.c, rel=1e-12)
    assert phi(lim, -1e12) == pytest.approx(-lim.c, rel=1e-10)
    # continuity across the internal large-argument branch switch at r = 1
    s_switch = lim.c / lim.mu
    below = phi(lim, s_switch * (1.0 - 1e-13))
    above = phi(lim, s_switch * (1.0 + 1e-13))
    assert abs(above - below) <= 1e-11 * lim.c


@pytest.mark.parametrize("lim", SATURATED, ids=str)
def test_g_integrable_up_to_boundary(lim):
    # g ~ (c - y)^(-1/p) with p > 1 is integrable: truncated integrals form a
    # Cauchy sequence whose increments shrink like eps^(1 - 1/p).
    f = lambda y: g_inverse(lim, y)
    i4, _ = quad(f, 0.0, lim.c * (1.0 - 1e-4), limit=400)
    i6, _ = quad(f, 0.0, lim.c * (1.0 - 1e-6), limit=400)
    i8, _ = quad(f, 0.0, lim.c * (1.0 - 1e-8), limit=400)
    d1, d2 = i6 - i4, i8 - i6
    assert 0.0 < d2 < 0.3 * d1
    assert d1 / i8 < 0.1


def test_relativistic_primitive_closed_form():
    # integral of c*y / (mu * sqrt(c^2 - y^2)) from 0 to Y
    # is (c/mu) * (c - sqrt(c^2 - Y^2))
    lim = FluxLimiter(RELATIVISTIC, mu=0.7, c=2.0)
    upper = lim.c * (1.0 - 1e-6)
    num, _ = quad(lambda y: g_inverse(lim, y), 0.0, upper, limit=200)
    exact = (lim.c / lim.mu) * (lim.c - math.sqrt(lim.c**2 - upper**2))
    assert num == pytest.approx(exact, rel=1e-8)


@pytest.mark.parametrize("lim", LIMITERS, ids=str)
def test_g_prime_matches_difference_quotient(lim):
    rng = np.random.default_rng(11)
    c = lim.c if lim.saturated else 4.0
    for y in rng.uniform(-0.9 * c, 0.9 * c, size=50):
        y = float(y)
        h = 1e-6 * max(1.0, abs(y))
        fd = (g_inverse(lim, y + h) - g_inverse(lim, y - h)) / (2.0 * h)
        assert g_prime(lim, y) == pytest.approx(fd, rel=5e-6)


@pytest.mark.parametrize("lim", SATURATED, ids=str)
def test_domain_error_at_boundary(lim):
    for y in (lim.c, -lim.c, 1.5 * lim.c, -2.0 * lim.c):
        with pytest.raises(DomainError):
            g_inverse(lim, y)
        with pytest.raises(DomainError):
            g_prime(lim, y)


def test_slope_domain_saturated():
    # a*v - sigma in (-c, c)  <=>  v in ((sigma-c)/a, (sigma+c)/a)
    lo, hi = slope_domain(REL, a=2.0, sigma=1.0)
    assert lo == pytest.approx(0.0)
    assert hi == pytest.approx(1.0)
    lo, hi = slope_domain(FluxLimiter(LARSON, c=0.5, p=2.5), a=0.5, sigma=1.0)
    assert lo == pytest.approx(1.0)
    assert hi == pytest.approx(3.0)


def test_validation_rejects_bad_parameters():
    with pytest.raises(ValueError):
        FluxLimiter("quadratic")
    with pytest.raises(ValueError):
        FluxLimiter(LINEAR, mu=0.0)
    with pytest.raises(ValueError):
        FluxLimiter(RELATIVISTIC, c=-1.0)
    with pytest.raises(ValueError):
        FluxLimiter(LARSON, p=1.0)
    with pytest.raises(ValueError):
        FluxLimiter(LARSON, p=None)


def test_config_round_trip():
    for lim in LIMITERS:
        assert limiter_from_config(lim.to_dict()) == lim
    assert limiter_from_config({}) == FluxLimiter(LINEAR)
    assert limiter_from_config({"kind": "RELATIVISTIC", "c": 3}) == FluxLimiter(
        RELATIVISTIC, mu=1.0, c=3.0
    )


@pytest.mark.parametrize("lim", LIMITERS, ids=str)
def test_make_g_matches_g_inverse(lim):
    g = make_g(lim)
    rng = np.random.default_rng(5)
    c = lim.c if lim.saturated else 8.0
    for y in rng.uniform(-0.9999 * c, 0.9999 * c, size=300):
        assert g(float(y)) == pytest.approx(g_inverse(lim, float(y)), rel=1e-13)
    if lim.saturated:
        with pytest.raises(DomainError):
            g(lim.c)


def test_boundary_exponent():
    assert boundary_exponent(REL) == pytest.approx(2.0)
    assert boundary_exponent(FluxLimiter(LARSON, p=3.0)) == pytest.approx(1.5)
    assert boundary_exponent(FluxLimiter(LARSON, p=1.5)) == pytest.approx(3.0)
    with pytest.raises(DomainError):
        boundary_exponent(FluxLimiter(LINEAR))


class TestBoundaryFactor:
    """F(q) = q^(m-1) * g(y(q)) stays finite and smooth down to q = 0."""

    def test_limit_value_relativistic(self):
        # mu = c = a = 1, upper side: y = 1 - q^2, g ~ 1/(q*sqrt(2)),
        # so q^(m-1) * g -> 1/sqrt(2).
        f = make_boundary_factor(REL, a=1.0, side=+1)
        assert f(0.0) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)
        assert f(1e-12) == pytest.approx(f(0.0), rel=1e-6)

    @pytest.mark.parametrize("lim", SATURATED, ids=str)
    @pytest.mark.parametrize("side", [+1, -1])
    def test_matches_direct_formula_away_from_boundary(self, lim, side):
        a = 1.7
        m = boundary_exponent(lim)
        f = make_boundary_factor(lim, a=a, side=side)
        rng = np.random.default_rng(17)
        # q in a range where x = a q^m / c is comfortably representable
        for q in rng.uniform(0.05, (0.9 * lim.c / a) ** (1.0 / m), size=100):
            q = float(q)
            y = side * (lim.c - a * q**m)
            direct = g_inverse(lim, y) * q ** (m - 1.0)
            assert f(q) == pytest.approx(direct, rel=1e-9)

    @pytest.mark.parametrize("lim", SATURATED, ids=str)
    def test_small_q_branch_is_continuous(self, lim):
        a = 0.9
        m = boundary_exponent(lim)
        f = make_boundary_factor(lim, a=a, side=+1)
        # walk q down five decades: F must converge monotonically-ish to F(0)
        vals = [f(10.0**-k) for k in range(2, 8)] + [f(0.0)]
        diffs = [abs(v - vals[-1]) for v in vals[:-1]]
        assert all(d2 <= d1 * 0.9 + 1e-14 for d1, d2 in zip(diffs, diffs[1:]))
        # the branch switch at x = 0.5 is seamless
        q_switch = (0.5 * lim.c / a) ** (1.0 / m)
        assert f(q_switch * (1 - 1e-9)) == pytest.approx(
            f(q_switch * (1 + 1e-9)), rel=1e-6
        )

    @pytest.mark.parametrize("lim", SATURATED, ids=str)
    def test_tiny_q_gives_the_limit(self, lim):
        # q^m subnormal or 0: the small-q branch would divide by 0
        f = make_boundary_factor(lim, a=1.0, side=-1)
        assert all(f(q) == f(0.0) for q in (1e-100, 2.2e-162, 1e-200, 5e-324))

    def test_side_validation(self):
        with pytest.raises(ValueError):
            make_boundary_factor(REL, a=1.0, side=0)
