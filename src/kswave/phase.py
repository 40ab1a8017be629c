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
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.optimize import brentq

from .errors import DegenerateError
from .flux import FluxLimiter, LINEAR, g_inverse, g_prime, limiter_from_config, make_g, slope_domain

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

    def to_dict(self) -> dict:
        return {
            "a": self.a,
            "sigma": self.sigma,
            "gamma": self.gamma,
            "lambda": self.lam,
            "limiter": self.limiter.to_dict(),
        }


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


def rhs(p: ModelParams, w: float, v: float) -> tuple[float, float]:
    """Vector field (w', v') at a single state."""
    return make_rhs(p)(w, v)


def jacobian(p: ModelParams, w: float, v: float) -> np.ndarray:
    """Jacobian of the vector field at (w, v)."""
    y = p.a * v - p.sigma
    gv = g_inverse(p.limiter, y)
    gp = g_prime(p.limiter, y)
    return np.array(
        [
            [gv - v, w * (p.a * gp - 1.0)],
            [-1.0 / p.gamma, -2.0 * v],
        ]
    )


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
    """All v in the slope domain with g(a*v - sigma) = v."""
    lim = p.limiter
    if not lim.saturated:
        # ((a - mu) * v - sigma) / mu = 0
        if p.a == lim.mu:
            return ()
        return (p.sigma / (p.a - lim.mu),)

    g = make_g(lim)
    h = lambda v: g(p.a * v - p.sigma) - v
    hp = lambda v: p.a * g_prime(lim, p.a * v - p.sigma) - 1.0
    lo, hi = p.slope_domain
    pad = 1e-9 * (hi - lo)
    grid = np.linspace(lo + pad, hi - pad, 4097)
    vals = np.array([h(float(v)) for v in grid])
    roots: list[float] = []
    for i in range(len(grid) - 1):
        va, vb = float(grid[i]), float(grid[i + 1])
        fa, fb = float(vals[i]), float(vals[i + 1])
        if fa == 0.0:
            roots.append(va)
            continue
        if fa * fb < 0.0:
            r = brentq(h, va, vb, xtol=1e-14, rtol=4 * np.finfo(float).eps)
            # polish with Newton so the residual is at rounding level even
            # when g' is large
            for _ in range(2):
                d = hp(r)
                if d != 0.0:
                    step = h(r) / d
                    if abs(step) < 0.5 * (vb - va):
                        r -= step
            roots.append(float(r))
    if vals[-1] == 0.0:
        roots.append(float(grid[-1]))
    # dedupe near-coincident roots from adjacent brackets
    roots.sort()
    out: list[float] = []
    for r in roots:
        if not out or abs(r - out[-1]) > 1e-10 * (hi - lo):
            out.append(r)
    return tuple(out)


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


def _as_scalar(z: complex) -> complex:
    """Collapse numerically-real complex numbers to clean complex values."""
    return complex(z.real, z.imag)


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
    equilibria go through a dense eigensolve, eigenvalues sorted by
    descending real part, then descending imaginary part.
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

    jac = jacobian(p, w, v)
    raw_vals, raw_vecs = np.linalg.eig(jac)
    order = sorted(range(2), key=lambda i: (-raw_vals[i].real, -raw_vals[i].imag))
    evals = tuple(_as_scalar(complex(raw_vals[i])) for i in order)
    vecs = tuple(
        _normalize((complex(raw_vecs[0, i]), complex(raw_vecs[1, i]))) for i in order
    )
    return evals, vecs, _label_from_eigenvalues(*evals)


def equilibria(p: ModelParams) -> list[Equilibrium]:
    """All equilibria with w >= 0, sorted by (v, w).

    Axis equilibria (0, +-v_star) are included when +-v_star lies in the
    slope domain; interior equilibria pair each slope-balance root v3 with
    w3 = lam - gamma*v3**2 and are kept only when w3 > 0.
    """
    lo, hi = p.slope_domain
    points: list[tuple[float, float]] = []
    for v_axis in (-p.v_star, p.v_star):
        if lo < v_axis < hi:
            points.append((0.0, v_axis))
    for v3 in _slope_balance_roots(p):
        w3 = p.lam - p.gamma * v3 * v3
        if w3 > 0.0:
            points.append((w3, v3))
    points.sort(key=lambda q: (q[1], q[0]))
    out = []
    for w, v in points:
        evals, vecs, label = eigenstructure(p, (w, v))
        out.append(Equilibrium(w=w, v=v, eigenvalues=evals, eigenvectors=vecs, label=label))
    return out


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
