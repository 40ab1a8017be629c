"""Flux limiters: the diffusion nonlinearity phi and its inverse g.

The planar reduction evaluates g = phi^{-1} at a*v - sigma.  Linear
diffusion has g defined on all of the reals; the saturated limiters
(relativistic, larson) have range (-c, c), so g blows up at +-c and the
slope variable v is confined to the open interval `slope_domain`.

Both saturated kinds are members of one family,

    phi(s) = mu * s / (1 + (mu*|s|/c)^p)^(1/p),      p > 1,

with p = 2 the relativistic case.  The family inverts in closed form:

    g(y) = y / (mu * (1 - (|y|/c)^p)^(1/p)),         |y| < c,

evaluated for p = 2 as c*y / (mu * sqrt((c - y)(c + y))), which keeps
its accuracy next to the boundary.  Each limiter compiles g, its domain
guard and g' once (`_kernel`); `g_inverse`, `g_prime`, `make_g` and
`make_boundary_factor`, which also makes graph legs' boundary kernel,
are views of that one kernel; `boundary_factor_constants` hands the
boundary factor's constants to the unrolled step that inlines it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from .errors import DomainError

LINEAR = "linear"
RELATIVISTIC = "relativistic"
LARSON = "larson"

_KINDS = (LINEAR, RELATIVISTIC, LARSON)


@dataclass(frozen=True)
class FluxLimiter:
    kind: str               # one of "linear", "relativistic", "larson"
    mu: float = 1.0         # viscosity; phi'(0) = mu > 0
    c: float = 1.0          # saturation speed, sup phi = c (ignored for linear)
    p: float | None = None  # larson exponent, required > 1 for kind "larson"

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown limiter kind {self.kind!r}")
        for name in ("mu", "c", "p"):
            val = getattr(self, name)
            if val is not None and not math.isfinite(val):
                raise ValueError(f"limiter {name} must be finite, got {val!r}")
        if not self.mu > 0:
            raise ValueError("limiter mu must be positive")
        if self.kind != LINEAR and not self.c > 0:
            raise ValueError("limiter c must be positive")
        if self.kind == LARSON and (self.p is None or not self.p > 1):
            raise ValueError("larson limiter requires exponent p > 1")

    @property
    def saturated(self) -> bool:
        return self.kind != LINEAR

    @property
    def exponent(self) -> float | None:
        """Saturation exponent p of the family (2 for relativistic)."""
        if self.kind == LINEAR:
            return None
        return 2.0 if self.kind == RELATIVISTIC else self.p

    def to_dict(self) -> dict:
        d = {"kind": self.kind, "mu": self.mu, "c": self.c}
        if self.kind == LARSON:
            d["p"] = self.p
        return d


def limiter_from_config(cfg: dict) -> FluxLimiter:
    """Build a limiter from the config mapping {"kind", "mu", "c", "p"?}."""
    kind = str(cfg.get("kind", LINEAR)).lower()
    p = cfg.get("p")
    return FluxLimiter(
        kind=kind,
        mu=float(cfg.get("mu", 1.0)),
        c=float(cfg.get("c", 1.0)),
        p=None if p is None else float(p),
    )


def phi(lim: FluxLimiter, s: float) -> float:
    """Flux value phi(s); odd and strictly increasing, |phi| < c when saturated."""
    if lim.kind == LINEAR:
        return lim.mu * s
    p = lim.exponent
    r = abs(lim.mu * s) / lim.c
    if r <= 1.0:
        return lim.mu * s / (1.0 + r**p) ** (1.0 / p)
    # large-argument branch, stable as r -> inf: phi -> sign(s) * c
    return math.copysign(lim.c / (1.0 + r**-p) ** (1.0 / p), s)


@lru_cache(maxsize=128)
def _kernel(lim: FluxLimiter) -> tuple[Callable[[float], float], Callable[[float], float]]:
    """(g, g') of one limiter, compiled once; g holds the only domain guard.

    The saturated g raises DomainError unless |y| < c (NaN included):
    there the slope of the trajectory becomes vertical.  g' follows from g
    by the inverse-function rule g' = 1 / phi'(g), which needs no guard of
    its own and has no cancellation near the boundary.
    """
    mu, c, p = lim.mu, lim.c, lim.exponent
    if lim.kind == LINEAR:
        return (lambda y: y / mu), (lambda y: 1.0 / mu)
    if lim.kind == RELATIVISTIC:

        def g(y: float) -> float:
            t = (c - y) * (c + y)  # c^2 * (1 - (y/c)^2) without cancellation
            if not t > 0.0:
                raise DomainError(f"|y| = {abs(y)!r} is outside (-c, c) with c = {c!r}")
            return c * y / (mu * math.sqrt(t))

    else:

        def g(y: float) -> float:
            t = 1.0 - (abs(y) / c) ** p
            if not t > 0.0:
                raise DomainError(f"|y| = {abs(y)!r} is outside (-c, c) with c = {c!r}")
            return y / (mu * t ** (1.0 / p))

    def g_prime(y: float) -> float:
        # phi'(s) = mu * (1 + (mu*|s|/c)^p)^(-(p+1)/p)
        return (1.0 + (mu * abs(g(y)) / c) ** p) ** ((p + 1.0) / p) / mu

    return g, g_prime


def g_inverse(lim: FluxLimiter, y: float) -> float:
    """g(y) = phi^{-1}(y); saturated kinds raise DomainError unless |y| < c."""
    return _kernel(lim)[0](y)


def g_prime(lim: FluxLimiter, y: float) -> float:
    """Derivative g'(y) = 1 / (mu * (1 - (|y|/c)^p)^((p+1)/p)); used by the Jacobian."""
    return _kernel(lim)[1](y)


def slope_domain(lim: FluxLimiter, a: float, sigma: float) -> tuple[float, float]:
    """Open interval of v on which g(a*v - sigma) is defined."""
    if lim.kind == LINEAR:
        return (-math.inf, math.inf)
    return ((sigma - lim.c) / a, (sigma + lim.c) / a)


def make_g(lim: FluxLimiter) -> Callable[[float], float]:
    """The scalar function g of this limiter, for integrator inner loops."""
    return _kernel(lim)[0]


def boundary_exponent(lim: FluxLimiter) -> float:
    """Exponent m = p/(p-1) of the substitution v = v_b -/+ q^m.

    Near the flux boundary g(y) ~ (c - |y|)^(-1/p), so parametrizing the
    approach by q with c - |y| proportional to q^m makes q^(m-1) * g(y(q))
    bounded: the graph ODE becomes regular up to the boundary itself.
    """
    if not lim.saturated:
        raise DomainError("linear limiter has no flux boundary")
    p = lim.exponent
    return p / (p - 1.0)


def boundary_factor_constants(lim: FluxLimiter, a: float, side: int) -> tuple:
    """(m, p, mu, c, g, limit0, dv_scale): the constants of
    `make_boundary_factor`'s F on `side`, with limit0 = F(0) and dv_scale
    = -side*m, dv/dq over q^(m-1); graph legs' unrolled step reads them."""
    if side not in (-1, 1):
        raise ValueError("side must be +1 or -1")
    p = lim.exponent
    m = boundary_exponent(lim)
    mu, c = lim.mu, lim.c
    limit0 = side * (c / mu) * (c / (p * a)) ** (1.0 / p)
    return m, p, mu, c, _kernel(lim)[0], limit0, -side * m


def make_boundary_factor(lim: FluxLimiter, a: float, side: int, v_edge: float | None = None):
    """Closure F(q) = q^(m-1) * g(y(q)) with y(q) = side*(c - a*q^m).

    side = +1 targets the upper boundary y -> +c (v_b = (sigma+c)/a),
    side = -1 the lower one.  F is finite and continuous down to q = 0,
    where g alone diverges; the small-q branch avoids the catastrophic
    cancellation in 1 - (|y|/c)^p by evaluating it as -expm1(p*log1p(-x))
    with x = a*q^m/c.  Given v_edge = v_b, the closure is instead a
    boundary graph leg, q -> (v, dv/dq, drive) with v = v_edge - side*q^m
    and drive = (g(a*v - sigma) - v) * dv/dq = -side*m*F - v*dv/dq, regular
    at q = 0: one call that forms q^m and q^(m-1) once.
    """
    m, p, mu, c, g, limit0, dv_scale = boundary_factor_constants(lim, a, side)

    def factor(q: float):
        qm, qm1 = q**m, q ** (m - 1.0)
        x = a * qm / c
        if x < 1e-32:  # F = limit0 * (1 + O(x)); q^m may be subnormal or 0
            F = limit0
        elif x > 0.5:
            F = g(side * (c - a * qm)) * qm1
        else:
            one_minus_u = -math.expm1(p * math.log1p(-x))
            F = side * (c - a * qm) * qm1 / (mu * one_minus_u ** (1.0 / p))
        if v_edge is None:
            return F
        v, dv = v_edge - side * qm, dv_scale * qm1
        return v, dv, dv_scale * F - dv * v

    return factor
