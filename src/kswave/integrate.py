"""Adaptive integration of the planar system, in s and in graph form.

Two complementary drivers live here.  `integrate` advances (w, v) in the
wave coordinate s with an embedded Dormand-Prince 5(4) pair, locating
termination events (slope blow-up, equilibrium capture, flux-boundary
arrival, vanishing w, span exhaustion) to root-finding accuracy.  It also
carries I(s) = integral of v ds, from which the signal S is reconstructed
later as S = S0 * exp(I - I0).

`integrate_graph_W` advances the same orbit as a graph W(v), which stays
regular where the s-parametrization degenerates: near the flux boundary
the slope becomes vertical in s, while in the graph form a substitution
v = v_edge -/+ q^m (m = p/(p-1)) makes the equation regular all the way
to the boundary.  The graph solver carries s and I along with W, by
ds = gamma/(lam - gamma*v^2 - W) dv and dI = v ds, so a leg's accuracy is
set by the solver tolerance; `GraphSolution.trajectory` turns a leg into
a Trajectory in ascending s.  Both drivers step through `_march`, one
adaptive loop with one step-size controller.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, field, fields, replace
from functools import partial
from typing import TYPE_CHECKING, Callable, Sequence

from .errors import (
    AnchorMismatch,
    DenominatorVanished,
    DomainError,
    Inconclusive,
    StepSizeUnderflow,
)
from .flux import boundary_exponent, make_boundary_factor, make_g
from .phase import ModelParams, equilibrium_points, make_rhs
from .roots import brentq

if TYPE_CHECKING:
    import numpy as np

# termination kinds
V_BLOW_UP_PLUS = "VBlowUpPlus"
V_BLOW_UP_MINUS = "VBlowUpMinus"
CONVERGED = "ConvergedToEquilibrium"
FLUX_BOUNDARY_LOW = "FluxBoundaryLow"
FLUX_BOUNDARY_HIGH = "FluxBoundaryHigh"
W_VANISHED = "WVanished"
MAX_SPAN = "MaxSpan"
BOUNDED = "Bounded"
GRAPH_END = "GraphEnd"

FORWARD = "forward"
BACKWARD = "backward"
BOTH = "both"


# The smallest relative tolerance a step-error norm can honour: SciPy's
# solve_ivp uses the same floor.
_RTOL_FLOOR = 100.0 * sys.float_info.epsilon


@dataclass(frozen=True)
class Controls:
    """Integration tolerances and termination thresholds."""

    rtol: float = 1e-10
    atol: float = 1e-12
    h_max: float = 10.0           # step cap: in s on orbits, in v or q on graph legs
    s_max: float = 1e3            # span bound |s - s0|
    max_steps: int = 1_000_000    # step attempts per orbit or graph leg
    v_max: float = 1e6            # |v| at which the run counts as blown up
    w_min: float = 1e-12          # w level treated as vanished; 0 disables
    eq_tol: float = 1e-9          # equilibrium capture ball, relative
    eq_dwell: float = 5.0         # span to sit in the ball; inf disables
    boundary_eps_rel: float = 1e-9  # flux-boundary standoff, relative to c
    denom_eps: float = 1e-10      # graph-denominator floor

    def __post_init__(self) -> None:
        for fld in fields(self):
            if math.isnan(getattr(self, fld.name)):
                raise ValueError(f"controls field {fld.name} is NaN")
        if not (0.0 < self.rtol < math.inf and 0.0 < self.atol < math.inf):
            raise ValueError(
                f"tolerances must be finite and positive, got rtol={self.rtol!r}, "
                f"atol={self.atol!r}"
            )
        if self.rtol < _RTOL_FLOOR:
            raise ValueError(
                f"rtol must be at least 100 * machine epsilon = {_RTOL_FLOOR!r}, "
                f"got {self.rtol!r}"
            )
        for name, ok, rule in (
            ("h_max", self.h_max > 0.0, "> 0"),
            ("s_max", 0.0 < self.s_max < math.inf, "finite and > 0"),
            ("max_steps", type(self.max_steps) is int and self.max_steps >= 1, "an integer >= 1"),
            ("v_max", self.v_max > 0.0, "> 0"),
            ("w_min", self.w_min >= 0.0, ">= 0"),
            ("eq_tol", self.eq_tol >= 0.0, ">= 0"),
            ("eq_dwell", self.eq_dwell > 0.0, "> 0"),
            ("boundary_eps_rel", self.boundary_eps_rel > 0.0, "> 0"),
            ("denom_eps", self.denom_eps > 0.0, "> 0"),
        ):
            if not ok:
                raise ValueError(f"controls field {name} must be {rule}: {getattr(self, name)!r}")


@dataclass(frozen=True)
class EventSpec:
    """Terminal zero-crossing event for `integrate`.

    `fn(s, w, v)` is evaluated at accepted samples; a sign change in the
    requested direction (+1: rising, -1: falling, 0: either) triggers the
    event, which is then located by root finding along the step.
    """

    fn: Callable[[float, float, float], float]
    kind: str
    direction: int = 0


@dataclass(frozen=True)
class TerminationEvent:
    kind: str
    s: float
    w: float
    v: float
    equilibrium_index: int | None = None  # into equilibria(p), when kind is CONVERGED


class ArrayField:
    """A dataclass field that stores a float sequence and reads as an ndarray.

    Orbits are built with the plain lists of samples the solver made; graph
    legs, whose dense output is vectorised, with ndarrays.  The first read
    of the attribute turns a list into an ndarray, once, and keeps that
    array in its place, so code that reads no array field never imports
    numpy.  Which fields were set as lists is recorded when they are set,
    so `built_with_arrays` does not change when a field is read.
    """

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            # no class-level value: dataclasses then sees a field without default
            raise AttributeError(self.name)
        vals = obj.__dict__[self.name]
        if isinstance(vals, list):
            import numpy as np

            vals = obj.__dict__[self.name] = np.array(vals, dtype=float)
        return vals

    def __set__(self, obj, value) -> None:
        obj.__dict__[self.name] = value
        lists = obj.__dict__.setdefault("_set_as_lists", set())
        if isinstance(value, list):
            lists.add(self.name)
        else:
            lists.discard(self.name)


_SAMPLES = ("s", "w", "v", "integral")  # the ArrayFields of a Trajectory


def built_with_arrays(objs: Sequence, names: Sequence[str]) -> bool:
    """Were the ArrayFields `names` of every obj all set to ndarrays?

    Graph legs are, and their samples are worked on vectorised; anything
    else is worked on as lists, so that it never loads numpy.
    """
    return not any(name in obj.__dict__["_set_as_lists"] for obj in objs for name in names)


def sample_list(obj, name: str) -> list[float]:
    """The samples of ArrayField `name` of obj as a list (not to be mutated)."""
    vals = obj.__dict__[name]
    return vals if isinstance(vals, list) else vals.tolist()


@dataclass
class Trajectory:
    """Sampled orbit with s ascending regardless of integration direction.

    `integral` holds I(s) = integral of v ds measured from the run anchor.
    `termination` describes the end the integration reached: the s[-1] end
    for forward runs, the s[0] end for backward runs; merged trajectories
    (direction "both") carry both, with `termination_start` at the s[0]
    end.  `s_minus`/`s_plus` are the profile edges implied by the
    termination (None when a side is undetermined; +-inf for ends that
    extend to infinity).  The four sample fields are ArrayFields: they
    read as ndarrays, built on first read.
    """

    s: np.ndarray = ArrayField()
    w: np.ndarray = ArrayField()
    v: np.ndarray = ArrayField()
    integral: np.ndarray = ArrayField()
    direction: str
    termination: TerminationEvent | None
    termination_start: TerminationEvent | None = None
    s_minus: float | None = None
    s_plus: float | None = None

    def end_events(self) -> tuple[TerminationEvent | None, TerminationEvent | None]:
        """Events at (s[0] end, s[-1] end)."""
        if self.direction == BACKWARD:
            return self.termination, None
        return self.termination_start, self.termination


# Dormand-Prince 5(4) tableau.  FSAL: the 7th stage row equals the weights
# B, so the last stage is the step's result.  B2 and E2 are zero.
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = ((), (1 / 5,), (3 / 40, 9 / 40), (44 / 45, -56 / 15, 32 / 9),
      (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
      (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
      (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84))
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)
(_A21,), (_A31, _A32), (_A41, _A42, _A43), (_A51, _A52, _A53, _A54) = _A[1:5]
_A61, _A62, _A63, _A64, _A65 = _A[5]
_B1, _, _B3, _B4, _B5, _B6 = _A[6]
_E1, _, _E3, _E4, _E5, _E6, _E7 = _E
# the nonzero (stage, coefficient) pairs of each row, as the generic step reads them
_A_ROWS = tuple(tuple((j, a) for j, a in enumerate(row) if a != 0.0) for row in _A)
_E_ROW = tuple((j, e) for j, e in enumerate(_E) if e != 0.0)

# Continuous extension (Hairer, Norsett & Wanner, Solving ODEs I, II.6):
# inside a step, y(t + x*h) = y + h * sum_j k_j * (P_j . (x, x^2, x^3, x^4)).
_P = (
    (1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432),
    (0, 0, 0, 0),
    (0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799),
    (0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072),
    (0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632),
    (0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844),
    (0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
)

_SAFETY = 0.9
_FAC_MIN = 0.2
_FAC_MAX = 10.0


def _rk_step(f, t, y, k1, h):
    """One DP54 step of size h from (t, y) with cached k1 = f(t, y), for any
    f(t, y) -> slopes.  Returns the 5th-order result, the seven stage slopes
    (the last is f at the result, FSAL) and the embedded error estimate per
    component.  Each sum runs left to right over the nonzero coefficients."""
    k = [k1]
    for i in range(1, 7):
        yi = []
        for c, u in enumerate(y):
            for j, a in _A_ROWS[i]:
                u += (h * a) * k[j][c]
            yi.append(u)
        k.append(f(t + _C[i] * h, yi))
    err = []
    for c in range(len(y)):
        acc = 0.0
        for j, e in _E_ROW:
            acc += e * k[j][c]
        err.append(h * acc)
    return tuple(yi), k, tuple(err)


def _dp54_step(f, y, k1, h):
    """One step of size h from state y=(w, v, I) with cached k1 = f(y).

    Returns (y5, k7, err) where y5 is the 5th-order result, k7 = f(y5)
    (FSAL), and err the embedded error estimate per component.  dI/ds = v,
    so the third slope of each stage is its v, and the stage values of I
    are never needed.  Every sum runs left to right over the nonzero
    coefficients in tableau order, so the results equal `_rk_step`'s on
    the slopes (f(w, v), v) to the bit; orbits take this unrolled form for
    speed.
    """
    w, v, ii = y
    k1w, k1v, k1i = k1
    a1 = h * _A21
    v2 = v + a1 * k1v
    k2w, k2v = f(w + a1 * k1w, v2)
    a1, a2 = h * _A31, h * _A32
    v3 = v + a1 * k1v + a2 * k2v
    k3w, k3v = f(w + a1 * k1w + a2 * k2w, v3)
    a1, a2, a3 = h * _A41, h * _A42, h * _A43
    v4 = v + a1 * k1v + a2 * k2v + a3 * k3v
    k4w, k4v = f(w + a1 * k1w + a2 * k2w + a3 * k3w, v4)
    a1, a2, a3, a4 = h * _A51, h * _A52, h * _A53, h * _A54
    v5 = v + a1 * k1v + a2 * k2v + a3 * k3v + a4 * k4v
    k5w, k5v = f(w + a1 * k1w + a2 * k2w + a3 * k3w + a4 * k4w, v5)
    a1, a2, a3, a4, a5 = h * _A61, h * _A62, h * _A63, h * _A64, h * _A65
    v6 = v + a1 * k1v + a2 * k2v + a3 * k3v + a4 * k4v + a5 * k5v
    k6w, k6v = f(w + a1 * k1w + a2 * k2w + a3 * k3w + a4 * k4w + a5 * k5w, v6)
    b1, b3, b4, b5, b6 = h * _B1, h * _B3, h * _B4, h * _B5, h * _B6
    w7 = w + b1 * k1w + b3 * k3w + b4 * k4w + b5 * k5w + b6 * k6w
    v7 = v + b1 * k1v + b3 * k3v + b4 * k4v + b5 * k5v + b6 * k6v
    i7 = ii + b1 * k1i + b3 * v3 + b4 * v4 + b5 * v5 + b6 * v6
    k7w, k7v = f(w7, v7)
    err = (
        h * (0.0 + _E1 * k1w + _E3 * k3w + _E4 * k4w + _E5 * k5w + _E6 * k6w + _E7 * k7w),
        h * (0.0 + _E1 * k1v + _E3 * k3v + _E4 * k4v + _E5 * k5v + _E6 * k6v + _E7 * k7v),
        h * (0.0 + _E1 * k1i + _E3 * v3 + _E4 * v4 + _E5 * v5 + _E6 * v6 + _E7 * v7),
    )
    return (w7, v7, i7), (k7w, k7v, v7), err


# w decays and grows over hundreds of orders of magnitude and enters the
# reconstructed density through an exponential of its running integral, so
# its step-error control must stay relative at any magnitude; the floor
# only guards against an exact-zero scale.
_W_ATOL_FLOOR = 1e-290

# Smallest step, relative to max(1, |s|), that still moves s.
_H_FLOOR_REL = 16.0 * sys.float_info.epsilon


def _h_floor(s: float) -> float:
    return _H_FLOOR_REL * max(1.0, abs(s))


def _initial_h(f, t, y, k1, sgn, ctr: Controls, span: float) -> float:
    """Starting step for f(t, y) -> slopes, at most h_max and span."""
    n = len(y)
    sc = tuple(ctr.atol + ctr.rtol * abs(c) for c in y)
    d0 = math.sqrt(sum((y[c] / sc[c]) ** 2 for c in range(n)) / n)
    d1 = math.sqrt(sum((k1[c] / sc[c]) ** 2 for c in range(n)) / n)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, ctr.h_max, span)
    f1 = None
    for _ in range(80):
        try:
            f1 = f(t + sgn * h0, tuple(y[c] + sgn * h0 * k1[c] for c in range(n)))
            break
        except (DomainError, ZeroDivisionError):
            h0 *= 0.25
    if f1 is None:
        raise StepSizeUnderflow("cannot take even an initial trial step")
    d2 = (
        math.sqrt(sum(((f1[c] - k1[c]) / sc[c]) ** 2 for c in range(n)) / n) / h0
    )
    dm = max(d1, d2)
    h1 = (0.01 / dm) ** 0.2 if dm > 1e-15 else max(1e-6, h0 * 1e-3)
    return max(min(100.0 * h0, h1, ctr.h_max, span), 1e3 * _h_floor(0.0))


def _march(step, t, y, k1, t_end, h, atols, rtol, ctr: Controls):
    """Adaptive march from (t, y), with cached slope k1, to t_end.

    `step(t, y, k1, h)` takes one DP54 step of signed size h and returns
    (y1, ks, err): the result, stage slopes ending with the slope at y1
    and the error estimate per component of the 3-component state.  The
    error norm is the RMS over scales atols[c] + rtol * |y[c]|; a step
    raising DomainError or ZeroDivisionError counts as infinite error.
    The I controller (Hairer, Norsett & Wanner, Solving ODEs I, II.4) is
    capped at h_max and does not grow right after a rejection.

    Yields each accepted step as (t, y, k1, h, t1, y1, ks), the last one
    landing on t_end exactly.  Raises Inconclusive after max_steps attempts
    and StepSizeUnderflow, chained from the last rejection's exception if
    it raised one, when a rejected step falls under the float spacing.
    """
    a0, a1, a2 = atols
    sgn = math.copysign(1.0, t_end - t)
    just_rejected = False
    cause = None
    for _ in range(ctr.max_steps):
        remaining = abs(t_end - t)
        # The landing step ends on t_end itself, so no stage passes it;
        # stretching up to 1% leaves no sliver step before it.
        landing = 1.01 * h >= remaining
        h_try = remaining if landing else h
        try:
            y1, ks, (e0, e1, e2) = step(t, y, k1, sgn * h_try)
            err = math.sqrt((
                (e0 / (a0 + rtol * max(abs(y[0]), abs(y1[0])))) ** 2
                + (e1 / (a1 + rtol * max(abs(y[1]), abs(y1[1])))) ** 2
                + (e2 / (a2 + rtol * max(abs(y[2]), abs(y1[2])))) ** 2
            ) / 3.0)
            cause = None
        except (DomainError, ZeroDivisionError) as exc:
            err, cause = math.inf, exc
        # NaN fails every comparison: a state gone non-finite is rejected
        # until the step size underflows.
        accepted = err <= 1.0
        fac = _FAC_MAX if err == 0.0 else _SAFETY * err ** -0.2
        grow = _FAC_MAX if accepted and not just_rejected else 1.0
        h = min(h_try * min(grow, max(_FAC_MIN, fac)), ctr.h_max)
        just_rejected = not accepted
        if not accepted:
            if h < _h_floor(t):
                raise StepSizeUnderflow(
                    f"step size underflow at {float(t)!r}, state {[float(c) for c in y]}"
                ) from cause
            continue
        t1 = t_end if landing else t + sgn * h_try
        yield t, y, k1, sgn * h_try, t1, y1, ks
        if landing:
            return
        t, y, k1 = t1, y1, ks[-1]
    raise Inconclusive(
        f"step budget {ctr.max_steps} exhausted at {float(t)!r}, state {[float(c) for c in y]}"
    )


def _crossed(e_prev: float, e_new: float, direction: int) -> bool:
    if direction > 0:
        return e_prev < 0.0 <= e_new
    if direction < 0:
        return e_prev > 0.0 >= e_new
    return (e_prev < 0.0 <= e_new) or (e_prev > 0.0 >= e_new)


def integrate(
    p: ModelParams,
    w0: float,
    v0: float,
    direction: str = FORWARD,
    controls: Controls | None = None,
    s0: float = 0.0,
    extra_events: Sequence[EventSpec] = (),
) -> Trajectory:
    """Advance (w, v) from (w0, v0) at s0 until a termination event.

    `direction` is "forward" (s increasing) or "backward".  `extra_events`
    are checked before the built-in ones and win ties.  A run that dwells
    in the capture ball of an equilibrium ends CONVERGED, with
    `equilibrium_index` indexing `equilibria(p)`.
    """
    ctr = controls or Controls()
    if direction not in (FORWARD, BACKWARD):
        raise ValueError(f"direction must be 'forward' or 'backward', got {direction!r}")
    if not (math.isfinite(w0) and math.isfinite(v0) and math.isfinite(s0)):
        raise ValueError(f"launch point must be finite, got ({s0!r}, {w0!r}, {v0!r})")
    if w0 < 0.0:
        raise ValueError("w0 must be nonnegative")
    sgn = 1.0 if direction == FORWARD else -1.0
    f = make_rhs(p)

    events = list(extra_events)
    # The built-in events are level crossings of w (component 0) or v (1),
    # tested on the states directly: for e = x - level, x_prev < level <= x_new
    # is exactly e_prev < 0 <= e_new in IEEE arithmetic.  Their EventSpec
    # serves only to locate the crossing.
    levels: list[tuple[int, float, int, EventSpec]] = []

    def level_event(c: int, level: float, direction: int, kind: str) -> None:
        fn = (lambda s, w, v: w - level) if c == 0 else (lambda s, w, v: v - level)
        levels.append((c, level, direction, EventSpec(fn=fn, kind=kind, direction=direction)))

    if p.limiter.saturated:
        lo, hi = p.slope_domain
        eps_v = _boundary_standoff(p, ctr)
        level_event(1, hi - eps_v, +1, FLUX_BOUNDARY_HIGH)
        level_event(1, lo + eps_v, -1, FLUX_BOUNDARY_LOW)
    if ctr.w_min > 0.0 and w0 > ctr.w_min:
        level_event(0, ctr.w_min, -1, W_VANISHED)
    level_event(1, ctr.v_max, +1, V_BLOW_UP_PLUS)
    level_event(1, -ctr.v_max, -1, V_BLOW_UP_MINUS)

    eq_data = [
        (we, ve, ctr.eq_tol * (1.0 + math.hypot(we, ve))) for we, ve in equilibrium_points(p)
    ]

    def eq_ball(w: float, v: float) -> int | None:
        for idx, (we, ve, rad) in enumerate(eq_data):
            dw, dv = w - we, v - ve
            # hypot >= max(|dw|, |dv|), so the box test only skips misses
            if abs(dw) <= rad and abs(dv) <= rad and math.hypot(dw, dv) <= rad:
                return idx
        return None

    s = s0
    y = (w0, v0, 0.0)
    k1 = f(w0, v0) + (v0,)
    ss, ws, vs, iis = [s], [w0], [v0], [0.0]
    e_prev = [ev.fn(s, w0, v0) for ev in events]
    dwell_idx = eq_ball(w0, v0)
    dwell_s = s

    def step(s, y, k1, h):
        y5, k7, err = _dp54_step(f, y, k1, h)
        return y5, (k7,), err

    h = _initial_h(lambda t, y: f(y[0], y[1]) + (y[1],), s, y, k1, sgn, ctr, ctr.s_max)
    march = _march(
        step, s, y, k1, s0 + sgn * ctr.s_max, h, (_W_ATOL_FLOOR, ctr.atol, ctr.atol), ctr.rtol, ctr
    )
    try:
        for s_old, y_old, k1_old, h, s, y, _ in march:
            # --- event detection along this accepted step ---
            # extra events come first, so they win ties
            e_new = [ev.fn(s, y[0], y[1]) for ev in events]
            best: tuple[float, EventSpec] | None = None
            for ev, e_old, e in zip(events, e_prev, e_new):
                if _crossed(e_old, e, ev.direction):
                    theta = _locate_event(f, y_old, k1_old, h, s_old, ev, e)
                    if best is None or theta < best[0]:
                        best = (theta, ev)
            for c, level, d, ev in levels:
                x_old, x = y_old[c], y[c]
                if (x_old < level <= x) if d > 0 else (x_old > level >= x):
                    theta = _locate_event(f, y_old, k1_old, h, s_old, ev, x - level)
                    if best is None or theta < best[0]:
                        best = (theta, ev)
            if best is not None:
                theta, ev = best
                if theta >= 1.0:
                    y_ev, s_ev = y, s
                else:
                    y_ev = _dp54_step(f, y_old, k1_old, h * theta)[0]
                    s_ev = s_old + h * theta
                ss.append(s_ev), ws.append(y_ev[0]), vs.append(y_ev[1]), iis.append(y_ev[2])
                term = TerminationEvent(kind=ev.kind, s=s_ev, w=y_ev[0], v=y_ev[1])
                break

            ss.append(s), ws.append(y[0]), vs.append(y[1]), iis.append(y[2])
            e_prev = e_new

            # --- equilibrium dwell ---
            idx = eq_ball(y[0], y[1])
            if idx != dwell_idx:
                dwell_idx, dwell_s = idx, s
            elif idx is not None and abs(s - dwell_s) >= ctr.eq_dwell:
                term = TerminationEvent(
                    kind=CONVERGED, s=s, w=y[0], v=y[1], equilibrium_index=idx
                )
                break
        else:
            term = TerminationEvent(kind=MAX_SPAN, s=s, w=y[0], v=y[1])
    except StepSizeUnderflow as exc:
        # steps that keep leaving the slope domain near the flux boundary
        # have arrived there
        kind = _near_flux_boundary(p, y[1], ctr)
        if kind is None or not isinstance(exc.__cause__, DomainError):
            raise
        term = TerminationEvent(kind=kind, s=s, w=y[0], v=y[1])

    if term.kind == MAX_SPAN and _looks_bounded(ws, vs):
        term = replace(term, kind=BOUNDED)

    return _assemble(p, f, ss, ws, vs, iis, direction, term, ctr)


def _boundary_standoff(p: ModelParams, ctr: Controls) -> float:
    """Distance in v kept from the flux boundary of a saturated limiter."""
    return ctr.boundary_eps_rel * p.limiter.c / p.a


def _near_flux_boundary(p: ModelParams, v: float, ctr: Controls) -> str | None:
    if not p.limiter.saturated:
        return None
    lo, hi = p.slope_domain
    eps_v = _boundary_standoff(p, ctr)
    if abs(v - lo) <= 1e3 * eps_v:
        return FLUX_BOUNDARY_LOW
    if abs(v - hi) <= 1e3 * eps_v:
        return FLUX_BOUNDARY_HIGH
    return None


def _locate_event(f, y, k1, h_signed, s_base, ev: EventSpec, e_end: float) -> float:
    """Fraction theta in (0, 1] at which ev.fn crosses zero along the step."""
    if e_end == 0.0:
        return 1.0

    def phi(theta: float) -> float:
        if theta <= 0.0:
            return ev.fn(s_base, y[0], y[1])
        if theta >= 1.0:
            return e_end
        try:
            yt = _dp54_step(f, y, k1, h_signed * theta)[0]
        except DomainError:
            return e_end
        return ev.fn(s_base + h_signed * theta, yt[0], yt[1])

    return brentq(phi, 0.0, 1.0, xtol=1e-15)


def _looks_bounded(ws: list, vs: list) -> bool:
    n = len(ws)
    if n < 8:
        return False
    half = n // 2

    def amp(xs):
        early = max(abs(x) for x in xs[:half])
        late = max(abs(x) for x in xs[half:])
        return late <= 1.05 * max(early, 1e-30)

    return amp(ws) and amp(vs)


def _assemble(p, f, ss, ws, vs, iis, direction, term, ctr) -> Trajectory:
    s, w, v, ii = ss, ws, vs, iis
    if direction == BACKWARD:
        s, w, v, ii = s[::-1], w[::-1], v[::-1], ii[::-1]
    # An event located at the far tip of a step can land within float
    # noise of the accepted sample; keep the later (event) sample so
    # downstream difference quotients never divide by a noise gap.  s is
    # monotone, so when the smallest gap clears the floor at the larger end
    # it clears every sample's floor and all are kept.
    floor = _H_FLOOR_REL * max(1.0, abs(s[0]), abs(s[-1]))
    if len(s) > 1 and not min(map(operator.sub, s[1:], s)) > floor:
        keep = [
            k for k, (x, y) in enumerate(zip(s, s[1:]))
            if y - x > _H_FLOOR_REL * max(1.0, abs(x))
        ]
        keep.append(len(s) - 1)
        s, w, v, ii = ([x[k] for k in keep] for x in (s, w, v, ii))

    s_minus = s_plus = None
    edge = None
    if term.kind in (V_BLOW_UP_PLUS, V_BLOW_UP_MINUS):
        # near blow-up v' ~ -v^2, so the asymptote sits at s - 1/v + O(|v|^-3)
        edge = term.s - 1.0 / term.v
    elif term.kind in (CONVERGED, W_VANISHED):
        edge = math.inf if direction == FORWARD else -math.inf
    elif term.kind in (FLUX_BOUNDARY_LOW, FLUX_BOUNDARY_HIGH):
        lo, hi = p.slope_domain
        v_edge = lo if term.kind == FLUX_BOUNDARY_LOW else hi
        try:
            dv = f(term.w, term.v)[1]
        except DomainError:
            dv = 0.0
        edge = term.s + ((v_edge - term.v) / dv if dv != 0.0 else 0.0)
    if edge is not None:
        if direction == FORWARD:
            s_plus = edge
        else:
            s_minus = edge

    return Trajectory(
        s=s,
        w=w,
        v=v,
        integral=ii,
        direction=direction,
        termination=term,
        s_minus=s_minus,
        s_plus=s_plus,
    )


def merge_trajectories(pieces: Sequence[Trajectory], rel_tol: float = 1e-6) -> Trajectory:
    """Chain trajectories whose endpoint states coincide into one.

    Pieces are given in ascending-s order; piece k's last sample must match
    piece k+1's first sample in (w, v) to within rel_tol (AnchorMismatch
    otherwise).  s and I of later pieces are shifted to agree at the seams;
    the merged run inherits its end events and edges from the outer pieces.
    """
    if not pieces:
        raise ValueError("nothing to merge")
    if len(pieces) == 1:
        return pieces[0]
    # Graph legs are built with arrays and joined vectorised: a Python loop
    # over a front's 2 x 2049 samples would cost more than the rest of the
    # merge.  Anything else is joined as lists, so merging orbits never
    # loads numpy.
    arrays = built_with_arrays(pieces, _SAMPLES)
    read = getattr if arrays else sample_list
    cols = [[read(piece, name) for piece in pieces] for name in _SAMPLES]
    first = pieces[0]
    # the merged run's last sample so far: single-sample pieces add none
    s_end, w_end, v_end, i_end = (col[0][-1] for col in cols)
    shifts_s, shifts_i = [], []
    for ps, pw, pv, pi in list(zip(*cols))[1:]:
        dw = abs(pw[0] - w_end)
        dv = abs(pv[0] - v_end)
        if dw > rel_tol * (1.0 + abs(w_end)) or dv > rel_tol * (1.0 + abs(v_end)):
            raise AnchorMismatch(
                f"seam mismatch: ({w_end!r}, {v_end!r}) vs ({pw[0]!r}, {pv[0]!r})"
            )
        shift_s, shift_i = s_end - ps[0], i_end - pi[0]
        shifts_s.append(shift_s)
        shifts_i.append(shift_i)
        if len(ps) > 1:
            s_end, w_end, v_end, i_end = ps[-1] + shift_s, pw[-1], pv[-1], pi[-1] + shift_i
    last_shift_s = shifts_s[-1]
    no_shifts = [0.0] * len(shifts_s)
    s, w, v, ii = (
        _joined(col, shifts, arrays)
        for col, shifts in zip(cols, (shifts_s, no_shifts, no_shifts, shifts_i))
    )

    last = pieces[-1]
    low_ev = first.end_events()[0]
    high_ev = last.end_events()[1]
    if high_ev is not None:
        high_ev = replace(high_ev, s=high_ev.s + last_shift_s)
    s_plus = last.s_plus
    if s_plus is not None and math.isfinite(s_plus):
        s_plus += last_shift_s
    return Trajectory(
        s=s,
        w=w,
        v=v,
        integral=ii,
        direction=BOTH,
        termination=high_ev,
        termination_start=low_ev,
        s_minus=first.s_minus,
        s_plus=s_plus,
    )


def _joined(cols: list, shifts: list[float], arrays: bool):
    """cols[0] followed by each later column, shifted, without its first sample."""
    # pieces launched from one anchor, as an orbit's two legs are, meet with
    # zero shifts and are joined as they are
    if arrays:
        import numpy as np

        later = (c[1:] + d if d else c[1:] for c, d in zip(cols[1:], shifts))
        return np.concatenate([cols[0], *later])
    out = list(cols[0])
    for c, d in zip(cols[1:], shifts):
        out += [x + d for x in c[1:]] if d else c[1:]
    return out


def shift_trajectory(traj: Trajectory, delta: float) -> Trajectory:
    """Translate the wave coordinate by delta (waves are defined only up
    to translation); states are untouched, events and edges move along."""

    def ev(e: TerminationEvent | None) -> TerminationEvent | None:
        return None if e is None else replace(e, s=e.s + delta)

    def edge(x: float | None) -> float | None:
        if x is None or not math.isfinite(x):
            return x
        return x + delta

    return Trajectory(
        s=[x + delta for x in sample_list(traj, "s")],
        w=sample_list(traj, "w"),
        v=sample_list(traj, "v"),
        integral=sample_list(traj, "integral"),
        direction=traj.direction,
        termination=ev(traj.termination),
        termination_start=ev(traj.termination_start),
        s_minus=edge(traj.s_minus),
        s_plus=edge(traj.s_plus),
    )


# --------------------------------------------------------------------------
# graph form W(v)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundaryZone:
    """q-parametrization of a graph leg ending on the flux boundary.

    v = v_edge - side * q^m, so q >= 0 measures the distance to the edge
    and q = 0 is the edge itself.
    """

    v_edge: float   # boundary value of v
    side: int       # +1: upper edge of the slope domain, -1: lower
    m: float        # substitution exponent p/(p-1)

    def v(self, q):
        """Slope at boundary coordinate q."""
        return self.v_edge - self.side * q**self.m

    def q(self, v):
        """Boundary coordinate of slope v; slopes past the edge map to 0."""
        import numpy as np

        return np.maximum(self.side * (self.v_edge - np.asarray(v)), 0.0) ** (1.0 / self.m)

    def dv_dq(self, q):
        """Derivative dv/dq of the substitution."""
        return -self.side * self.m * q ** (self.m - 1.0)


@dataclass
class GraphSolution:
    """Orbit as a graph W(v) along a monotone-v leg, anchor to target.

    Arrays are in path order (from the anchor toward the target) and hold
    the solver's dense output at the sample grid: W, and s and I = integral
    of v ds, which the solver carries along with W.  `dense` is that output
    as a function of the independent variable, with state (W or 1/W by
    `mode`, s, I).  When `boundary` is set, the leg was integrated in the
    regularized variable q of that zone, and `q` holds the matching samples
    (ending at q = 0 on the boundary itself); otherwise the independent
    variable is v.
    """

    v: np.ndarray
    W: np.ndarray
    s: np.ndarray
    integral: np.ndarray
    mode: str                     # "W" or "Y" (reciprocal) integration
    dense: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    boundary: BoundaryZone | None = None
    q: np.ndarray | None = None

    def W_at(self, v):
        """W on the leg from the dense output; NaN for slopes off the leg."""
        import numpy as np

        b = self.boundary
        x, t = (self.v, v) if b is None else (self.q, b.q(v))
        t = np.asarray(t, dtype=float)
        y = self.dense(t.ravel())[0].reshape(t.shape)
        W = 1.0 / y if self.mode == "Y" else y
        on_leg = (t >= min(x[0], x[-1])) & (t <= max(x[0], x[-1]))
        return np.where(on_leg, W, np.nan)

    def trajectory(self) -> Trajectory:
        """The leg as a Trajectory in ascending s.

        A boundary leg ends on the flux boundary, which becomes that end's
        termination kind and profile edge; the other end is a GRAPH_END.
        """
        s, w, v, ii = self.s, self.W, self.v, self.integral
        lo_kind = hi_kind = GRAPH_END
        if self.boundary is not None:
            hi_kind = FLUX_BOUNDARY_HIGH if self.boundary.side > 0 else FLUX_BOUNDARY_LOW
        if s[-1] < s[0]:
            s, w, v, ii = s[::-1].copy(), w[::-1].copy(), v[::-1].copy(), ii[::-1].copy()
            lo_kind, hi_kind = hi_kind, lo_kind
        term_lo = TerminationEvent(kind=lo_kind, s=float(s[0]), w=float(w[0]), v=float(v[0]))
        term_hi = TerminationEvent(kind=hi_kind, s=float(s[-1]), w=float(w[-1]), v=float(v[-1]))
        return Trajectory(
            s=s,
            w=w,
            v=v,
            integral=ii,
            direction=BOTH,
            termination=term_hi,
            termination_start=term_lo,
            s_minus=float(s[0]) if lo_kind != GRAPH_END else None,
            s_plus=float(s[-1]) if hi_kind != GRAPH_END else None,
        )


# Near a fold lam - W - gamma*v^2 = 0 the denominator falls like the square
# root of the distance to it, so the solver's step reaches the float spacing,
# and the solve fails, while the denominator is still of order sqrt(eps):
# far above the event floor, far below any value a leg passes through.  A
# failed solve whose last signed denominator is under the floor raised by
# 1/sqrt(eps) stalled at a fold.
_FOLD_FACTOR = 1.0 / math.sqrt(sys.float_info.epsilon)


def integrate_graph_W(
    p: ModelParams,
    v_anchor: float,
    W_anchor: float,
    v_target: float,
    controls: Controls | None = None,
    n_samples: int = 2049,
    s_start: float = 0.0,
) -> GraphSolution:
    """Integrate dW/dv = gamma*W*(g(a*v - sigma) - v)/(lam - W - gamma*v^2).

    Monotone-v legs only.  When W_anchor > lam the reciprocal Y = 1/W is
    integrated instead (the denominator then stays one-signed in Y form).
    When v_target is a flux-boundary edge, the whole leg runs in the
    regularized variable q, reaching the boundary exactly at q = 0.  The
    solver carries s, from s_start at the anchor, and I = integral of v ds
    along with W: ds/dv = gamma/(lam - W - gamma*v^2) and dI/dv = v ds/dv.
    Raises DomainError for a v_target outside the slope domain (the
    infinite edges of a linear limiter's included) and DenominatorVanished
    if lam - W - gamma*v^2 approaches zero or the solve stalls at a fold.
    """
    ctr = controls or Controls()
    if v_target == v_anchor:
        raise ValueError("v_target must differ from v_anchor")
    if not W_anchor > 0.0:
        raise ValueError("W_anchor must be positive")
    lim = p.limiter
    g = make_g(lim)
    a, sigma, gamma, lam = p.a, p.sigma, p.gamma, p.lam
    lo, hi = p.slope_domain
    if not lo < v_anchor < hi:
        raise DomainError(f"v_anchor = {v_anchor!r} outside the slope domain")

    use_y = W_anchor > lam
    boundary: BoundaryZone | None = None
    if lim.saturated:
        eps_v = _boundary_standoff(p, ctr)
        if abs(v_target - hi) <= eps_v:
            boundary = BoundaryZone(v_edge=hi, side=+1, m=boundary_exponent(lim))
        elif abs(v_target - lo) <= eps_v:
            boundary = BoundaryZone(v_edge=lo, side=-1, m=boundary_exponent(lim))
    if boundary is None and not lo < v_target < hi:
        raise DomainError(f"v_target = {v_target!r} outside the slope domain")

    # leg(t) gives, at the independent variable t (plain v, or q on a
    # boundary leg), the slope v, dv/dt and drive = (g(a*v - sigma) - v) *
    # dv/dt; on a boundary leg the factor q^(m-1) * g keeps the drive
    # regular up to q = 0
    if boundary is None:
        t0, t1 = v_anchor, v_target

        def leg(t):
            return t, 1.0, g(a * t - sigma) - t

    else:
        factor = make_boundary_factor(lim, a, boundary.side)
        dv_scale = -boundary.side * boundary.m  # dv/dq over q^(m-1)
        t0, t1 = boundary.q(v_anchor), 0.0

        def leg(t):
            v, dv = boundary.v(t), boundary.dv_dq(t)
            return v, dv, dv_scale * factor(t) - dv * v

    # With k = gamma/(lam - W - gamma*v^2): dW/dt = k*W*drive, ds/dt =
    # k*dv/dt and dI/dt = v*ds/dt.  The Y form divides by
    # den = 1 - Y*(lam - gamma*v^2) = -Y*(lam - W - gamma*v^2) instead.
    if use_y:
        floor = ctr.denom_eps
        y0 = (1.0 / W_anchor, s_start, 0.0)

        def rhs_ode(t, y):
            v, dv, drive = leg(t)
            k = gamma / (1.0 - y[0] * (lam - gamma * v * v))
            ds = -k * y[0] * dv
            return k * y[0] * y[0] * drive, ds, v * ds

        def den(t, y):
            v = leg(t)[0]
            return 1.0 - y[0] * (lam - gamma * v * v)

    else:
        floor = ctr.denom_eps * max(
            1.0, lam, gamma * max(v_anchor * v_anchor, v_target * v_target)
        )
        y0 = (W_anchor, s_start, 0.0)

        def rhs_ode(t, y):
            v, dv, drive = leg(t)
            k = gamma / (lam - y[0] - gamma * v * v)
            ds = k * dv
            return k * y[0] * drive, ds, v * ds

        def den(t, y):
            v = leg(t)[0]
            return lam - y[0] - gamma * v * v

    # the guard is signed with the anchor's denominator sign: a pinch shows
    # up as a one-way crossing no accepted step can pass unnoticed
    dsign = math.copysign(1.0, den(t0, y0))
    sgn = math.copysign(1.0, t1 - t0)
    k1 = rhs_ode(t0, y0)
    h = _initial_h(rhs_ode, t0, y0, k1, sgn, ctr, abs(t1 - t0))
    march = _march(
        partial(_rk_step, rhs_ode), t0, y0, k1, t1, h, (ctr.atol,) * 3, max(ctr.rtol, 1e-13), ctr
    )
    steps = []  # (t, signed h, y, stage slopes) of each accepted step
    t, y = t0, y0
    try:
        for t_old, y_old, _, h, t, y, ks in march:
            steps.append((t_old, h, y_old, ks))
            if den(t, y) * dsign <= floor:
                raise DenominatorVanished(
                    f"lam - W - gamma*v^2 reached the floor at independent variable {float(t)!r}"
                )
    except StepSizeUnderflow as exc:
        den_end = den(t, y) * dsign
        if den_end < _FOLD_FACTOR * floor:
            raise DenominatorVanished(
                f"graph integration stalled at a fold: signed denominator "
                f"{float(den_end)!r} at independent variable {float(t)!r}"
            ) from exc
        raise Inconclusive(f"graph integration failed: {exc}") from exc

    # the continuous extension maps an array of t to the states there, shape
    # (3,) + t.shape, extrapolating from the nearest step off the leg; it is
    # vectorised over the sample grid, so graph legs load numpy
    import numpy as np

    t_old, hs, y_old, ks = (np.array(col) for col in zip(*steps))
    Q = np.swapaxes(ks, 1, 2) @ np.array(_P)  # (step, component, power)

    def dense(t):
        t = np.asarray(t, dtype=float)
        x = t.ravel()
        i = np.clip(np.searchsorted(sgn * t_old, sgn * x, side="right") - 1, 0, len(hs) - 1)
        theta = (x - t_old[i]) / hs[i]
        powers = theta[:, None] ** np.arange(1, 5)
        y = y_old[i] + hs[i, None] * np.einsum("ncp,np->nc", Q[i], powers)
        return y.T.reshape((3,) + t.shape)

    ts = np.linspace(t0, t1, n_samples)
    yy, s, ii = dense(ts)
    return GraphSolution(
        v=ts if boundary is None else boundary.v(ts),
        W=1.0 / yy if use_y else yy,
        s=s,
        integral=ii,
        mode="Y" if use_y else "W",
        dense=dense,
        boundary=boundary,
        q=None if boundary is None else ts,
    )

