"""Planar phase-space reduction: vector field, nullclines, equilibria.

State is (w, v) where w is the ratio of cell density to signal and v is
the logarithmic slope of the signal.  The traveling-wave system reduces to

    w' = w * (g(a*v - sigma) - v)
    v' = (lam - gamma*v**2 - w) / gamma

with g the inverse of the flux limiter.  Equilibria on the w = 0 axis sit
at v = +-v_star with v_star = sqrt(lam/gamma); interior equilibria solve
g(a*v - sigma) = v on the parabola w = lam - gamma*v**2.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from .errors import DegenerateError, PreconditionError
from .flux import (
    FluxLimiter, LINEAR, g_inverse, g_prime, limiter_from_config, make_g, phi, slope_domain,
)
from .roots import brentq

if TYPE_CHECKING:
    import numpy as np

# stability labels
STABLE_NODE = "StableNode"
UNSTABLE_NODE = "UnstableNode"
SADDLE = "Saddle"
STABLE_FOCUS = "StableFocus"
UNSTABLE_FOCUS = "UnstableFocus"
DEGENERATE = "Degenerate"

# relative tolerance deciding when an eigenvalue counts as zero
_EIG_ZERO_REL = 1e-9
# relative tolerance deciding when sigma sits on the borderline sigma_star
_SIGMA_DEGENERATE_REL = 1e-9


@dataclass(frozen=True)
class ModelParams:
    a: float                       # chemotactic strength relative to viscosity
    sigma: float                   # wave speed, > 0
    gamma: float = 1.0             # signal diffusivity, > 0
    lam: float = 1.0               # signal growth rate, >= 0
    limiter: FluxLimiter = field(default_factory=lambda: FluxLimiter(LINEAR))

    def __post_init__(self) -> None:
        if not 0 < self.a < math.inf:
            raise ValueError(f"a must be positive and finite, got {self.a!r}")
        if not 0 < self.sigma < math.inf:
            raise ValueError(f"sigma must be positive and finite, got {self.sigma!r}")
        if not 0 < self.gamma < math.inf:
            raise ValueError(f"gamma must be positive and finite, got {self.gamma!r}")
        if not 0 <= self.lam < math.inf:
            raise ValueError(f"lam must be nonnegative and finite, got {self.lam!r}")

    @property
    def v_star(self) -> float:
        """Slope magnitude sqrt(lam/gamma) of the axis equilibria."""
        return math.sqrt(self.lam / self.gamma)

    @property
    def sigma_star(self) -> float:
        """Critical wave speed |1 - a| * v_star separating the regimes."""
        return abs(1.0 - self.a) * self.v_star

    @property
    def slope_domain(self) -> tuple[float, float]:
        return slope_domain(self.limiter, self.a, self.sigma)

    def check_slope(self, v: float, what: str) -> None:
        """Refuse a slope `what` = v off the open slope domain, NaN included."""
        lo, hi = self.slope_domain
        if not lo < v < hi:
            raise PreconditionError(f"{what} = {v!r} outside the slope domain ({lo!r}, {hi!r})")

    def to_dict(self) -> dict:
        return {
            "a": self.a,
            "sigma": self.sigma,
            "gamma": self.gamma,
            "lambda": self.lam,
            "limiter": self.limiter.to_dict(),
        }


def check_density(name: str, w: float) -> None:
    """Refuse a density `name` = w that is not finite and positive."""
    if not 0.0 < w < math.inf:
        raise PreconditionError(f"{name} must be a positive density, got {w!r}")


def params_from_config(cfg: dict) -> ModelParams:
    """Build ModelParams from a config mapping; "lambda" is the growth key."""
    lam = cfg.get("lambda", cfg.get("lam", 1.0))
    lim_cfg = cfg.get("limiter", {})
    return ModelParams(
        a=float(cfg["a"]),
        sigma=float(cfg["sigma"]),
        gamma=float(cfg.get("gamma", 1.0)),
        lam=float(lam),
        limiter=limiter_from_config(lim_cfg) if isinstance(lim_cfg, dict) else lim_cfg,
    )


def make_rhs(p: ModelParams) -> Callable[[float, float], tuple[float, float]]:
    """Specialized closure of the vector field for integrator inner loops."""
    g = make_g(p.limiter)
    a, sigma, gamma, lam = p.a, p.sigma, p.gamma, p.lam

    def f(w: float, v: float) -> tuple[float, float]:
        gv = g(a * v - sigma)
        return (w * (gv - v), (lam - gamma * v * v - w) / gamma)

    return f


def make_log_rhs(p: ModelParams) -> Callable[[float, float], tuple[float, float]]:
    """`make_rhs` in (ln w, v), the state orbits march in: (ln w)' =
    g(a*v - sigma) - v, and ln w = -inf is the invariant axis w = 0."""
    g = make_g(p.limiter)
    a, sigma, gamma, lam = p.a, p.sigma, p.gamma, p.lam
    exp = math.exp

    def f(lw: float, v: float) -> tuple[float, float]:
        return (g(a * v - sigma) - v, (lam - gamma * v * v - exp(lw)) / gamma)

    return f


def rhs(p: ModelParams, w: float, v: float) -> tuple[float, float]:
    """Vector field (w', v') at a single state."""
    return make_rhs(p)(w, v)


def _jacobian_entries(p: ModelParams, w: float, v: float) -> tuple[float, float, float, float]:
    """Entries (J00, J01, J10, J11) of the Jacobian of the vector field at (w, v)."""
    y = p.a * v - p.sigma
    gv = g_inverse(p.limiter, y)
    gp = g_prime(p.limiter, y)
    return gv - v, w * (p.a * gp - 1.0), -1.0 / p.gamma, -2.0 * v


def jacobian(p: ModelParams, w: float, v: float) -> np.ndarray:
    """Jacobian of the vector field at (w, v)."""
    import numpy as np

    j00, j01, j10, j11 = _jacobian_entries(p, w, v)
    return np.array([[j00, j01], [j10, j11]])


@dataclass(frozen=True)
class Nullclines:
    """The two nullcline families of the planar system.

    The v-nullcline is the parabola w = lam - gamma*v**2.  The w-nullcline
    is the axis w = 0 together with vertical lines at each v solving
    g(a*v - sigma) = v; `slope_roots` lists those v values (regardless of
    whether the parabola is positive there).
    """

    parabola: Callable[[float], float]
    slope_roots: tuple[float, ...]


def _slope_balance_roots(p: ModelParams) -> tuple[float, ...]:
    """All v in the slope domain with g(a*v - sigma) = v, ascending.

    h(v) = g(a*v - sigma) - v has h' = a*g'(y) - 1, and g' grows with |y|
    from g'(0) = 1/mu.  So h is monotone when a >= mu; when a < mu it is
    monotone between the turning points v = (sigma -+ y1)/a, where
    g'(y1) = 1/a.  Each monotone piece holds at most one root, bracketed
    by the piece itself, so there are at most three.
    """
    lim = p.limiter
    if not lim.saturated:
        # ((a - mu) * v - sigma) / mu = 0
        if p.a == lim.mu:
            return ()
        return (p.sigma / (p.a - lim.mu),)

    a, sigma = p.a, p.sigma
    g = make_g(lim)
    h = lambda v: g(a * v - sigma) - v
    hp = lambda v: a * g_prime(lim, a * v - sigma) - 1.0
    lo, hi = p.slope_domain
    pad = 1e-9 * (hi - lo)
    knots = [lo + pad, hi - pad]
    if a < lim.mu:
        # phi'(s1) = a at (mu*s1/c)^q = (mu/a)^(q/(q+1)) - 1, and y1 = phi(s1)
        q = lim.exponent
        s1 = lim.c / lim.mu * ((lim.mu / a) ** (q / (q + 1.0)) - 1.0) ** (1.0 / q)
        y1 = phi(lim, s1)
        turns = ((sigma - y1) / a, (sigma + y1) / a)
        knots[1:1] = [v for v in turns if knots[0] < v < knots[-1]]
    vals = [h(v) for v in knots]
    roots: list[float] = []
    for va, vb, fa, fb in zip(knots, knots[1:], vals, vals[1:]):
        if fa == 0.0:
            roots.append(va)
        elif fa * fb < 0.0:
            r = brentq(h, va, vb, xtol=1e-14)
            # polish with Newton so the residual is at rounding level even
            # when g' is large
            for _ in range(2):
                d = hp(r)
                if d != 0.0:
                    step = h(r) / d
                    if va < r - step < vb:
                        r -= step
            roots.append(r)
    if vals[-1] == 0.0:
        roots.append(knots[-1])
    return tuple(roots)


def nullclines(p: ModelParams) -> Nullclines:
    lam, gamma = p.lam, p.gamma
    return Nullclines(
        parabola=lambda v: lam - gamma * v * v,
        slope_roots=_slope_balance_roots(p),
    )


@dataclass(frozen=True)
class Equilibrium:
    w: float
    v: float
    eigenvalues: tuple[complex, complex]
    # unit eigenvectors as (w, v) pairs, aligned with eigenvalues
    eigenvectors: tuple[tuple[complex, complex], tuple[complex, complex]]
    label: str


def _normalize(vec: tuple[complex, complex]) -> tuple[complex, complex]:
    norm = math.hypot(abs(vec[0]), abs(vec[1]))
    if norm == 0.0:
        return vec
    a, b = vec[0] / norm, vec[1] / norm
    lead = a if abs(a) >= abs(b) else b
    if lead != 0:
        phase = lead.conjugate() / abs(lead)
        a, b = a * phase, b * phase
    return (complex(a), complex(b))


# LAPACK's machine constants dlamch('P') and dlamch('S')
_ULP = sys.float_info.epsilon
_SAFE_MIN = sys.float_info.min


def _schur2(a: float, b: float, c: float, d: float):
    """LAPACK dlanv2: the standard real Schur form of [[a, b], [c, d]].

    Returns (a, b, c, d, cs, sn) with J = Q [[a, b], [c, d]] Q^T and
    Q = [[cs, -sn], [sn, cs]].  Real eigenvalues leave c = 0 and a, d
    the eigenvalues; a complex pair leaves a = d its real part and
    sqrt|b|*sqrt|c| its imaginary part.  dlanv2's rescaling of entries
    beyond 2**485 or under 2**-485 is left out.
    """
    if c == 0.0:
        return a, b, c, d, 1.0, 0.0
    if b == 0.0:
        # swap rows and columns
        return d, -c, 0.0, a, 0.0, 1.0
    if a - d == 0.0 and math.copysign(1.0, b) != math.copysign(1.0, c):
        return a, b, c, d, 1.0, 0.0
    temp = a - d
    p = 0.5 * temp
    bcmax = max(abs(b), abs(c))
    bcmis = min(abs(b), abs(c)) * math.copysign(1.0, b) * math.copysign(1.0, c)
    scale = max(abs(p), bcmax)
    z = (p / scale) * p + (bcmax / scale) * bcmis
    if z >= 4.0 * _ULP:
        # real eigenvalues d + z and d - bc/z
        z = p + math.copysign(math.sqrt(scale) * math.sqrt(z), p)
        tau = math.hypot(c, z)
        return d + z, b - c, 0.0, d - (bcmax / z) * bcmis, z / tau, c / tau
    # complex or nearly equal eigenvalues: make the diagonal entries equal
    sigma = b + c
    tau = math.hypot(sigma, temp)
    cs = math.sqrt(0.5 * (1.0 + abs(sigma) / tau))
    sn = -(p / (tau * cs)) * math.copysign(1.0, sigma)
    aa, bb = a * cs + b * sn, -a * sn + b * cs
    cc, dd = c * cs + d * sn, -c * sn + d * cs
    a, b = aa * cs + cc * sn, bb * cs + dd * sn
    c, d = -aa * sn + cc * cs, -bb * sn + dd * cs
    a = d = temp = 0.5 * (a + d)
    if c != 0.0:
        if b == 0.0:
            return a, -c, 0.0, d, -sn, cs
        if math.copysign(1.0, b) == math.copysign(1.0, c):
            # real eigenvalues after all: reduce to upper triangular form
            sab, sac = math.sqrt(abs(b)), math.sqrt(abs(c))
            p = math.copysign(sab * sac, c)
            tau = 1.0 / math.sqrt(abs(b + c))
            cs1, sn1 = sab * tau, sac * tau
            return temp + p, b - c, 0.0, temp - p, cs * cs1 - sn * sn1, cs * sn1 + sn * cs1
    return a, b, c, d, cs, sn


def _eig2(j00: float, j01: float, j10: float, j11: float):
    """Eigenvalues and eigenvectors of a real 2x2 matrix in closed form.

    The eigenvalues are those of dlanv2's Schur form J = Q T Q^T.  A real
    pair's eigenvectors are Q's first column and Q times the solution of
    the triangular system, left unscaled (eigenstructure normalizes them).
    A complex pair's vector takes the further steps LAPACK dgeev takes:
    dtrevc3's scaling, the unit normalization and dlartg's rotation of the
    largest component onto the real axis.  Without any one of these the
    README `equilibria` output's focus eigenvectors change in their last
    bits.  Returns ([l1, l2], [x1, x2]) with x_k = (w, v) components.
    """
    a, b, c, d, cs, sn = _schur2(j00, j01, j10, j11)
    if c == 0.0:
        # the triangular solve, its pivot guarded as dlaln2 guards it
        den = a - d
        smin = max(_ULP * abs(d), _SAFE_MIN * 2.0 / _ULP)
        x = -b / (den if abs(den) >= smin else smin)
        vecs = [(complex(cs), complex(sn)), (complex(cs * x - sn), complex(sn * x + cs))]
        return [complex(a), complex(d)], vecs
    wi = math.sqrt(abs(c)) * math.sqrt(abs(b))
    xr, xi = (1.0, wi / b) if abs(b) >= abs(c) else (-wi / c, 1.0)
    re, im = [cs * xr, sn * xr], [-sn * xi, cs * xi]
    big = 1.0 / max(abs(re[0]) + abs(im[0]), abs(re[1]) + abs(im[1]))
    re, im = [x * big for x in re], [x * big for x in im]
    scl = 1.0 / math.hypot(math.hypot(*re), math.hypot(*im))
    re, im = [x * scl for x in re], [x * scl for x in im]
    # dlartg: rotate the component of largest modulus onto the real axis
    k = 0 if re[0] ** 2 + im[0] ** 2 >= re[1] ** 2 + im[1] ** 2 else 1
    f, g = re[k], im[k]
    if f == 0.0:
        rc, rs = 0.0, math.copysign(1.0, g)
    else:
        r = math.copysign(math.sqrt(f * f + g * g), f)
        rc, rs = abs(f) / abs(r), g / r
    re, im = [rc * x + rs * y for x, y in zip(re, im)], [rc * y - rs * x for x, y in zip(re, im)]
    im[k] = 0.0
    vec = (complex(re[0], im[0]), complex(re[1], im[1]))
    return [complex(a, wi), complex(d, -wi)], [vec, (vec[0].conjugate(), vec[1].conjugate())]


def _label_from_eigenvalues(x1: complex, x2: complex) -> str:
    eps = _EIG_ZERO_REL * max(1.0, abs(x1), abs(x2))
    if abs(x1.imag) > eps or abs(x2.imag) > eps:
        re = 0.5 * (x1.real + x2.real)
        if abs(re) <= eps:
            return DEGENERATE
        return STABLE_FOCUS if re < 0 else UNSTABLE_FOCUS
    r1, r2 = x1.real, x2.real
    if abs(r1) <= eps or abs(r2) <= eps:
        return DEGENERATE
    if r1 > 0 and r2 > 0:
        return UNSTABLE_NODE
    if r1 < 0 and r2 < 0:
        return STABLE_NODE
    return SADDLE


def eigenstructure(
    p: ModelParams, point
) -> tuple[tuple[complex, complex], tuple[tuple[complex, complex], ...], str]:
    """Eigenvalues, unit eigenvectors, and stability label at an equilibrium.

    `point` is an Equilibrium or a (w, v) pair.  On the axis (w = 0) the
    Jacobian is lower triangular, so the exact eigenvalues are the diagonal
    entries (g(a*v - sigma) - v, -2*v) — returned in that order.  Interior
    equilibria take the closed-form 2x2 eigensolve of `_eig2`, eigenvalues
    sorted by descending real part, then descending imaginary part.
    """
    w = getattr(point, "w", None)
    if w is None:
        w, v = float(point[0]), float(point[1])
    else:
        v = point.v
        w = float(w)

    if w == 0.0:
        y = p.a * v - p.sigma
        x1 = g_inverse(p.limiter, y) - v
        x2 = -2.0 * v
        # (J - x1) kills (gamma*(x2 - x1), 1); (J - x2) kills (0, 1)
        if x1 == x2:
            vecs = ((0.0 + 0j, 1.0 + 0j), (0.0 + 0j, 1.0 + 0j))
        else:
            vecs = (
                _normalize((p.gamma * (x2 - x1), 1.0)),
                (0.0 + 0j, 1.0 + 0j),
            )
        evals = (complex(x1), complex(x2))
        return evals, vecs, _label_from_eigenvalues(*evals)

    raw_vals, raw_vecs = _eig2(*_jacobian_entries(p, w, v))
    order = sorted(range(2), key=lambda i: (-raw_vals[i].real, -raw_vals[i].imag))
    evals = tuple(raw_vals[i] for i in order)
    vecs = tuple(_normalize(raw_vecs[i]) for i in order)
    return evals, vecs, _label_from_eigenvalues(*evals)


def equilibrium_points(p: ModelParams) -> list[tuple[float, float]]:
    """Positions (w, v) of all equilibria with w >= 0, sorted by (v, w).

    Axis equilibria (0, +-v_star) are included when +-v_star lies in the
    slope domain; interior equilibria pair each slope-balance root v3 with
    w3 = lam - gamma*v3**2 and are kept only when w3 > 0.
    """
    lo, hi = p.slope_domain
    points = [(0.0, v) for v in (-p.v_star, p.v_star) if lo < v < hi]
    for v3 in _slope_balance_roots(p):
        w3 = p.lam - p.gamma * v3 * v3
        if w3 > 0.0:
            points.append((w3, v3))
    points.sort(key=lambda q: (q[1], q[0]))
    return points


def equilibria(p: ModelParams) -> list[Equilibrium]:
    """The equilibria at `equilibrium_points(p)`, in that order, with their
    eigenvalues, eigenvectors and stability labels."""
    return [Equilibrium(w, v, *eigenstructure(p, (w, v))) for w, v in equilibrium_points(p)]


# regime cases of the linear-diffusion taxonomy
CASE_A = "A"  # a < 1, sigma < sigma_star
CASE_B = "B"  # a < 1, sigma > sigma_star
CASE_C = "C"  # a = 1
CASE_D = "D"  # a > 1, sigma < sigma_star
CASE_E = "E"  # a > 1, sigma > sigma_star


def regime_case(p: ModelParams) -> str:
    """Which of the five speed/strength regimes the parameters fall in.

    Raises DegenerateError on the borderline sigma = sigma_star (within
    relative tolerance), where the taxonomy changes character.
    """
    if p.a == 1.0:
        return CASE_C
    s_star = p.sigma_star
    if abs(p.sigma - s_star) <= _SIGMA_DEGENERATE_REL * max(1.0, s_star):
        raise DegenerateError(
            f"sigma = {p.sigma!r} sits on the critical speed sigma_star = {s_star!r}"
        )
    if p.a < 1.0:
        return CASE_A if p.sigma < s_star else CASE_B
    return CASE_D if p.sigma < s_star else CASE_E
