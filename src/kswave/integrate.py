"""Adaptive integration of the planar system, in s and in graph form.

Two complementary drivers live here.  `integrate` advances (w, v) in the
wave coordinate s with the 8(5,3) Dormand-Prince pair DOP853, locating
termination events (slope blow-up, equilibrium capture, flux-boundary
arrival, vanishing w, span exhaustion) on a step's quintic Hermite
interpolant and correcting each on the exact partial step.  It also
carries I(s) = integral of v ds, from which the signal S is reconstructed
later as S = S0 * exp(I - I0).  Its state is (ln w, v, I): where w
decays or grows exponentially near the invariant axis w = 0 (ln w = -inf),
(ln w)' = g(a*v - sigma) - v is smooth, so steps are not held to one size
there.  Samples, events and equilibrium balls see w.  Every orbit steps
with DOP853, whether its samples are read or only its deciding event: no
reported answer reads how densely an orbit was sampled, and
`Controls(h_max=...)` gives denser samples.  Near its edges an orbit is
marched in other variables: `_blow_up_tail` in tau = ln|v| past |v| =
10 * max(v_star, |v0|), with no w_min stop, since w can fall under it
on the way to the edge (like |v|^-(a/mu - 1)); and `_flux_boundary_leg`,
within 1e-3 of the width of a saturated slope domain from an edge, in q
(below) or ln w.

`integrate_graph_W` advances the same orbit as a graph W(v), which stays
regular where the s-parametrization degenerates: near the flux boundary
the slope becomes vertical in s, while in the graph form a substitution
v = v_edge -/+ q^m (m = p/(p-1)) makes the equation regular all the way
to the boundary.  Graph legs and flux-boundary legs march ln W, s and I
on one field (`_graph_field`), so a leg's accuracy is set by the solver
tolerance; `GraphSolution.trajectory` turns a leg into a Trajectory in
ascending s.  Both drivers step through `_march`, one adaptive loop with
one predictive step-size controller.

Every step is unrolled and runs on Python floats, which Python adds and
multiplies several times faster than numpy scalars.  Orbits take the
kernel `_dop853_step`, which evaluates the orbit's field inline at every
stage from constants bound once per orbit, calling only a saturated
limiter's g; `make_log_rhs`, the reference field, starts the march.  An
orbit hands over to its blow-up tail at the end of the step that crosses
the switch level, when no other event fired on that step: no answer
reads where the switch lies.  Tails step with DOP853 too, on
`_tail_step`, which evaluates the tail's field inline at the stage nodes
`_C8`.  Every march, in s or not, locates its events one way
(`_first_event`): the step is interpolated by the quintic in Hermite
form on its ends and its middle, whose state and slope one more call of
the march's kernel, an exact half step, gives (`_step_quintic`), and
the event found on it is corrected on the exact partial step.  Graph legs
and flux-boundary legs take DP54 steps that form stage values for the
first component alone, since a front's dense output is DP54's continuous
extension: in the boundary coordinate q, `_boundary_step`, which
evaluates the boundary factor and the graph field inline; in v and in
ln w, `_graph_step` on the field's closure.  Each step sums in the
generic tableau loop's order, so it gives that loop's results to the
bit, and each inline field gives its closure's.  A graph leg records
each accepted step as one flat row of floats; after the march, h is
folded into the extension's coefficients once per leg, and the dense
output evaluates them by Horner's rule.
"""

from __future__ import annotations

import contextlib
import math
import operator
import sys
from dataclasses import dataclass, field, fields, replace
from typing import TYPE_CHECKING, Callable, Sequence

from .errors import (
    AnchorMismatch,
    DenominatorVanished,
    DomainError,
    Inconclusive,
    StepSizeUnderflow,
)
from .flux import boundary_exponent, boundary_factor_constants, make_boundary_factor, make_g
from .phase import ModelParams, equilibrium_points, make_log_rhs
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
# not terminations: the levels that start a blow-up tail or flux-boundary leg
_TAIL = "BlowUpTail"
_EDGE = "FluxBoundaryLeg"

FORWARD = "forward"
BACKWARD = "backward"
BOTH = "both"

# The smallest relative tolerance a step-error norm can honour: SciPy's
# solve_ivp uses the same floor.
_RTOL_FLOOR = 100.0 * sys.float_info.epsilon

_SEAM_REL = 1e-6  # how far, relative, merged pieces' seam states may differ


@dataclass(frozen=True)
class Controls:
    """Integration tolerances and termination thresholds."""

    rtol: float = 1e-10
    atol: float = 1e-12
    h_max: float = 10.0           # step cap: s (orbits), ln|v| (tails), q or ln w or v (legs)
    s_max: float = 1e3            # span bound |s - s0|
    max_steps: int = 1_000_000    # step attempts per orbit or graph leg
    v_max: float = 1e6            # |v| at which the run counts as blown up
    w_min: float = 1e-12          # w level treated as vanished, tested in ln w; 0 disables
    eq_tol: float = 1e-9          # equilibrium capture ball, relative
    eq_dwell: float = 5.0         # span to sit in the ball; inf disables

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
_, _C2, _C3, _C4, _C5, _, _ = _C  # the last two nodes are 1
(_A21,), (_A31, _A32), (_A41, _A42, _A43), (_A51, _A52, _A53, _A54) = _A[1:5]
_A61, _A62, _A63, _A64, _A65 = _A[5]
_B1, _, _B3, _B4, _B5, _B6 = _A[6]
_E1, _, _E3, _E4, _E5, _E6, _E7 = _E

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


def _graph_step(f, t, y, ks, h):
    """One DP54 step of size h along a graph leg, from (t, y) with y = (x, s, I).

    `f(t, x)` gives the slopes of (x, s, I) at t: they depend on x (ln W)
    alone, so only x has stage values.  `ks` holds the previous step's
    stage slopes, the last of them f at (t, y) (FSAL); `(f(t, x),)` starts
    a leg.  Returns (y1, stages, err): the 5th-order result, the seven
    stage slopes (the last is f at y1), which the leg's continuous
    extension reads, and the embedded error estimate per component.  Every
    sum runs left to right over the nonzero coefficients in tableau order,
    so the results equal the generic tableau loop's to the bit.
    """
    x, s, ii = y
    k1 = k1x, k1s, k1i = ks[-1]
    a1 = h * _A21
    k2 = k2x, _, _ = f(t + _C2 * h, x + a1 * k1x)
    a1, a2 = h * _A31, h * _A32
    k3 = k3x, k3s, k3i = f(t + _C3 * h, x + a1 * k1x + a2 * k2x)
    a1, a2, a3 = h * _A41, h * _A42, h * _A43
    k4 = k4x, k4s, k4i = f(t + _C4 * h, x + a1 * k1x + a2 * k2x + a3 * k3x)
    a1, a2, a3, a4 = h * _A51, h * _A52, h * _A53, h * _A54
    k5 = k5x, k5s, k5i = f(t + _C5 * h, x + a1 * k1x + a2 * k2x + a3 * k3x + a4 * k4x)
    a1, a2, a3, a4, a5 = h * _A61, h * _A62, h * _A63, h * _A64, h * _A65
    k6 = k6x, k6s, k6i = f(
        t + h, x + a1 * k1x + a2 * k2x + a3 * k3x + a4 * k4x + a5 * k5x
    )
    b1, b3, b4, b5, b6 = h * _B1, h * _B3, h * _B4, h * _B5, h * _B6
    x7 = x + b1 * k1x + b3 * k3x + b4 * k4x + b5 * k5x + b6 * k6x
    s7 = s + b1 * k1s + b3 * k3s + b4 * k4s + b5 * k5s + b6 * k6s
    i7 = ii + b1 * k1i + b3 * k3i + b4 * k4i + b5 * k5i + b6 * k6i
    k7 = k7x, k7s, k7i = f(t + h, x7)
    err = (
        h * (0.0 + _E1 * k1x + _E3 * k3x + _E4 * k4x + _E5 * k5x + _E6 * k6x + _E7 * k7x),
        h * (0.0 + _E1 * k1s + _E3 * k3s + _E4 * k4s + _E5 * k5s + _E6 * k6s + _E7 * k7s),
        h * (0.0 + _E1 * k1i + _E3 * k3i + _E4 * k4i + _E5 * k5i + _E6 * k6i + _E7 * k7i),
    )
    return (x7, s7, i7), (k1, k2, k3, k4, k5, k6, k7), err


def _boundary_kernel(p: ModelParams, zone: BoundaryZone, dsign: float, floor: float) -> tuple:
    """The kernel (step, constants, order) of `_leg_march` that steps on the
    graph field (`_graph_field`, with dsign and floor) of the boundary leg
    `zone.leg(p)`: `_boundary_step` on the constants it evaluates it from."""
    m, pe, mu, c, g, limit0, dv_scale = boundary_factor_constants(p.limiter, p.a, zone.side)
    consts = (m, m - 1.0, pe, 1.0 / pe, mu, c, g, limit0, dv_scale, p.a, zone.side, zone.v_edge,
              p.gamma, p.lam, dsign, floor)
    return _boundary_step, consts, 5


def _boundary_step(field, t, y, ks, h):
    """`_graph_step` on a boundary leg in q, with the leg's field evaluated inline.

    At each stage the boundary factor (`make_boundary_factor`) and the
    graph field (`_graph_field`) are formed from the constants `field`
    (`_boundary_kernel`) with those closures' operations, so the results,
    and a DomainError at the denominator's floor, are `_graph_step`'s on
    the closure to the bit; stages 6 and 7 share the node q = t + h, and
    so the factor there.
    """
    m, m1, pe, inv_p, mu, c, g, limit0, dv_scale, a, side, v_edge, gamma, lam, dsign, floor = field
    exp, expm1, log1p = math.exp, math.expm1, math.log1p
    x, s, ii = y
    k1 = k1x, k1s, k1i = ks[-1]
    a1 = h * _A21
    q = t + _C2 * h
    qm, qm1 = q ** m, q ** m1
    z = a * qm / c
    F = (limit0 if z < 1e-32 else g(side * (c - a * qm)) * qm1 if z > 0.5
         else side * (c - a * qm) * qm1 / (mu * (-expm1(pe * log1p(-z))) ** inv_p))
    v, dv = v_edge - side * qm, dv_scale * qm1
    den = lam - gamma * v * v - exp(x + a1 * k1x)
    if den * dsign <= floor:
        raise DomainError(f"lam - gamma*v^2 - W reached the floor at {q!r}")
    k = gamma / den
    k2 = k2x, _, _ = k * (dv_scale * F - dv * v), k * dv, v * (k * dv)
    a1, a2 = h * _A31, h * _A32
    q = t + _C3 * h
    qm, qm1 = q ** m, q ** m1
    z = a * qm / c
    F = (limit0 if z < 1e-32 else g(side * (c - a * qm)) * qm1 if z > 0.5
         else side * (c - a * qm) * qm1 / (mu * (-expm1(pe * log1p(-z))) ** inv_p))
    v, dv = v_edge - side * qm, dv_scale * qm1
    den = lam - gamma * v * v - exp(x + a1 * k1x + a2 * k2x)
    if den * dsign <= floor:
        raise DomainError(f"lam - gamma*v^2 - W reached the floor at {q!r}")
    k = gamma / den
    k3 = k3x, k3s, k3i = k * (dv_scale * F - dv * v), k * dv, v * (k * dv)
    a1, a2, a3 = h * _A41, h * _A42, h * _A43
    q = t + _C4 * h
    qm, qm1 = q ** m, q ** m1
    z = a * qm / c
    F = (limit0 if z < 1e-32 else g(side * (c - a * qm)) * qm1 if z > 0.5
         else side * (c - a * qm) * qm1 / (mu * (-expm1(pe * log1p(-z))) ** inv_p))
    v, dv = v_edge - side * qm, dv_scale * qm1
    den = lam - gamma * v * v - exp(x + a1 * k1x + a2 * k2x + a3 * k3x)
    if den * dsign <= floor:
        raise DomainError(f"lam - gamma*v^2 - W reached the floor at {q!r}")
    k = gamma / den
    k4 = k4x, k4s, k4i = k * (dv_scale * F - dv * v), k * dv, v * (k * dv)
    a1, a2, a3, a4 = h * _A51, h * _A52, h * _A53, h * _A54
    q = t + _C5 * h
    qm, qm1 = q ** m, q ** m1
    z = a * qm / c
    F = (limit0 if z < 1e-32 else g(side * (c - a * qm)) * qm1 if z > 0.5
         else side * (c - a * qm) * qm1 / (mu * (-expm1(pe * log1p(-z))) ** inv_p))
    v, dv = v_edge - side * qm, dv_scale * qm1
    den = lam - gamma * v * v - exp(x + a1 * k1x + a2 * k2x + a3 * k3x + a4 * k4x)
    if den * dsign <= floor:
        raise DomainError(f"lam - gamma*v^2 - W reached the floor at {q!r}")
    k = gamma / den
    k5 = k5x, k5s, k5i = k * (dv_scale * F - dv * v), k * dv, v * (k * dv)
    a1, a2, a3, a4, a5 = h * _A61, h * _A62, h * _A63, h * _A64, h * _A65
    q = t + h
    qm, qm1 = q ** m, q ** m1
    z = a * qm / c
    F = (limit0 if z < 1e-32 else g(side * (c - a * qm)) * qm1 if z > 0.5
         else side * (c - a * qm) * qm1 / (mu * (-expm1(pe * log1p(-z))) ** inv_p))
    v, dv = v_edge - side * qm, dv_scale * qm1
    den = lam - gamma * v * v - exp(x + a1 * k1x + a2 * k2x + a3 * k3x + a4 * k4x + a5 * k5x)
    if den * dsign <= floor:
        raise DomainError(f"lam - gamma*v^2 - W reached the floor at {q!r}")
    k = gamma / den
    k6 = k6x, k6s, k6i = k * (dv_scale * F - dv * v), k * dv, v * (k * dv)
    b1, b3, b4, b5, b6 = h * _B1, h * _B3, h * _B4, h * _B5, h * _B6
    x7 = x + b1 * k1x + b3 * k3x + b4 * k4x + b5 * k5x + b6 * k6x
    s7 = s + b1 * k1s + b3 * k3s + b4 * k4s + b5 * k5s + b6 * k6s
    i7 = ii + b1 * k1i + b3 * k3i + b4 * k4i + b5 * k5i + b6 * k6i
    # stage 7 is at q = t + h, as stage 6: its factor, v and dv are stage 6's
    den = lam - gamma * v * v - exp(x7)
    if den * dsign <= floor:
        raise DomainError(f"lam - gamma*v^2 - W reached the floor at {q!r}")
    k = gamma / den
    k7 = k7x, k7s, k7i = k * (dv_scale * F - dv * v), k * dv, v * (k * dv)
    err = (
        h * (0.0 + _E1 * k1x + _E3 * k3x + _E4 * k4x + _E5 * k5x + _E6 * k6x + _E7 * k7x),
        h * (0.0 + _E1 * k1s + _E3 * k3s + _E4 * k4s + _E5 * k5s + _E6 * k6s + _E7 * k7s),
        h * (0.0 + _E1 * k1i + _E3 * k3i + _E4 * k4i + _E5 * k5i + _E6 * k6i + _E7 * k7i),
    )
    return (x7, s7, i7), (k1, k2, k3, k4, k5, k6, k7), err


# Dormand-Prince 8(5,3) tableau, DOP853 (Hairer, Norsett & Wanner, Solving
# ODEs I, II.10), with the constants of Hairer's dop853.f.  Row i of _A8 makes
# stage i + 1 from the stages before it; the last row is the weights B, and
# the slope at the result is the next step's first (FSAL).  _E8_5 is the
# 5th-order error row (er1, er6 ... er12); the 3rd-order row _E8_3 is B less
# the weights bhh1, bhh2, bhh3 on stages 1, 9 and 12.
_A8 = (
    (),
    (5.26001519587677318785587544488e-2,),
    (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
    (2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2),
    (2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
     9.24834003261792003115737966543e-1),
    (3.7037037037037037037037037037e-2, 0.0, 0.0, 1.70828608729473871279604482173e-1,
     1.25467687566822425016691814123e-1),
    (3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
     6.02165389804559606850219397283e-2, -1.7578125e-2),
    (3.70920001185047927108779319836e-2, 0.0, 0.0, 1.70383925712239993810214054705e-1,
     1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
     8.27378916381402288758473766002e-3),
    (6.24110958716075717114429577812e-1, 0.0, 0.0, -3.36089262944694129406857109825,
     -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
     2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1),
    (4.77662536438264365890433908527e-1, 0.0, 0.0, -2.48811461997166764192642586468,
     -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
     1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
     -2.03312017085086261358222928593e-2),
    (-9.3714243008598732571704021658e-1, 0.0, 0.0, 5.18637242884406370830023853209,
     1.09143734899672957818500254654, -8.14978701074692612513997267357,
     -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
     2.49360555267965238987089396762, -3.0467644718982195003823669022),
    (2.27331014751653820792359768449, 0.0, 0.0, -1.05344954667372501984066689879e1,
     -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
     2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
     -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
     6.43392746015763530355970484046e-1),
    (5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0, 4.45031289275240888144113950566,
     1.89151789931450038304281599044, -5.8012039600105847814672114227,
     3.1116436695781989440891606237e-1, -1.52160949662516078556178806805e-1,
     2.01365400804030348374776537501e-1, 4.47106157277725905176885569043e-2),
)
_E8_5 = (
    0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0, -0.1225156446376204440720569753e1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e1,
    -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1,
)
_BHH = {0: 0.244094488188976377952755905512, 8: 0.733846688281611857341361741547,
        11: 0.220588235294117647058823529412e-1}
_E8_3 = tuple(b - _BHH.get(j, 0.0) for j, b in enumerate(_A8[12]))
# The stage nodes: stage i + 1 is at t + _C8[i] * h, the last at t + h (FSAL).
_C8 = (
    0.0, 0.526001519587677318785587544488e-1, 0.789002279381515978178381316732e-1,
    0.118350341907227396726757197510, 0.281649658092772603273242802490,
    0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
    0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142, 1.0, 1.0,
)


# The nonzero coefficients `_dop853_step` and `_tail_step` read, bound once:
# _A8_i_j makes stage i from stage j, _B8_j weighs stage j into the result,
# _E5_j and _E3_j into the error estimates, and stage i is at node _C8_i.
(
    (_A8_2_1,), (_A8_3_1, _A8_3_2), (_A8_4_1, _, _A8_4_3), (_A8_5_1, _, _A8_5_3, _A8_5_4),
    (_A8_6_1, _, _, _A8_6_4, _A8_6_5), (_A8_7_1, _, _, _A8_7_4, _A8_7_5, _A8_7_6),
    (_A8_8_1, _, _, _A8_8_4, _A8_8_5, _A8_8_6, _A8_8_7),
    (_A8_9_1, _, _, _A8_9_4, _A8_9_5, _A8_9_6, _A8_9_7, _A8_9_8),
    (_A8_10_1, _, _, _A8_10_4, _A8_10_5, _A8_10_6, _A8_10_7, _A8_10_8, _A8_10_9),
    (_A8_11_1, _, _, _A8_11_4, _A8_11_5, _A8_11_6, _A8_11_7, _A8_11_8, _A8_11_9, _A8_11_10),
    (_A8_12_1, _, _, _A8_12_4, _A8_12_5, _A8_12_6, _A8_12_7, _A8_12_8, _A8_12_9, _A8_12_10,
     _A8_12_11),
    (_B8_1, _, _, _, _, _B8_6, _B8_7, _B8_8, _B8_9, _B8_10, _B8_11, _B8_12),
) = _A8[1:]
_E5_1, _, _, _, _, _E5_6, _E5_7, _E5_8, _E5_9, _E5_10, _E5_11, _E5_12 = _E8_5
_E3_1, _, _, _, _, _E3_6, _E3_7, _E3_8, _E3_9, _E3_10, _E3_11, _E3_12 = _E8_3
_, _C8_2, _C8_3, _C8_4, _C8_5, _C8_6, _C8_7, _C8_8, _C8_9, _C8_10, _C8_11, _, _ = _C8


def _orbit_field(p: ModelParams) -> tuple:
    """The constants (g, mu, a, sigma, gamma, lam) from which `_dop853_step`
    evaluates an orbit's field; g is None for a linear limiter, g(y) = y/mu."""
    lim = p.limiter
    return (make_g(lim) if lim.saturated else None, lim.mu, p.a, p.sigma, p.gamma, p.lam)


def _orbit_state(s: float, y) -> tuple[float, float, float]:
    """(s, w, v) of an orbit's state y = (ln w, v, I) at s."""
    return s, math.exp(y[0]), y[1]


def _dop853_step(field, t, y, k1, h):
    """One DOP853 step of size h on an orbit from y = (ln w, v, I), k1 the slopes there.

    The field, of constants `field` (`_orbit_field`), is evaluated inline
    at each stage with the operations of f = make_log_rhs(p), and every sum
    runs left to right over the nonzero coefficients in tableau order, so
    the results equal, to the bit, the generic tableau loop's on the slopes
    (f(ln w, v), v).  t is not read (the field is autonomous): every step
    `_march` takes has this signature.  Returns (y8, k13, (err5, err3)):
    the 8th-order result, the slopes there (FSAL), and the 5th- and
    3rd-order error estimates per component.  dI/ds = v, so the third
    slope of each stage is its v, and I has no stage values.
    """
    g, mu, a, sigma, gamma, lam = field
    exp = math.exp
    w, v, ii = y
    k1w, k1v, k1i = k1
    a1 = h * _A8_2_1
    v2 = v + a1 * k1v
    k2w = ((a * v2 - sigma) / mu if g is None else g(a * v2 - sigma)) - v2
    k2v = (lam - gamma * v2 * v2 - exp(w + a1 * k1w)) / gamma
    a1, a2 = h * _A8_3_1, h * _A8_3_2
    v3 = v + a1 * k1v + a2 * k2v
    k3w = ((a * v3 - sigma) / mu if g is None else g(a * v3 - sigma)) - v3
    k3v = (lam - gamma * v3 * v3 - exp(w + a1 * k1w + a2 * k2w)) / gamma
    a1, a3 = h * _A8_4_1, h * _A8_4_3
    v4 = v + a1 * k1v + a3 * k3v
    k4w = ((a * v4 - sigma) / mu if g is None else g(a * v4 - sigma)) - v4
    k4v = (lam - gamma * v4 * v4 - exp(w + a1 * k1w + a3 * k3w)) / gamma
    a1, a3, a4 = h * _A8_5_1, h * _A8_5_3, h * _A8_5_4
    v5 = v + a1 * k1v + a3 * k3v + a4 * k4v
    k5w = ((a * v5 - sigma) / mu if g is None else g(a * v5 - sigma)) - v5
    k5v = (lam - gamma * v5 * v5 - exp(w + a1 * k1w + a3 * k3w + a4 * k4w)) / gamma
    a1, a4, a5 = h * _A8_6_1, h * _A8_6_4, h * _A8_6_5
    v6 = v + a1 * k1v + a4 * k4v + a5 * k5v
    k6w = ((a * v6 - sigma) / mu if g is None else g(a * v6 - sigma)) - v6
    k6v = (lam - gamma * v6 * v6 - exp(w + a1 * k1w + a4 * k4w + a5 * k5w)) / gamma
    a1, a4, a5, a6 = h * _A8_7_1, h * _A8_7_4, h * _A8_7_5, h * _A8_7_6
    v7 = v + a1 * k1v + a4 * k4v + a5 * k5v + a6 * k6v
    k7w = ((a * v7 - sigma) / mu if g is None else g(a * v7 - sigma)) - v7
    k7v = (lam - gamma * v7 * v7 - exp(w + a1 * k1w + a4 * k4w + a5 * k5w + a6 * k6w)) / gamma
    a1, a4, a5, a6, a7 = h * _A8_8_1, h * _A8_8_4, h * _A8_8_5, h * _A8_8_6, h * _A8_8_7
    v8 = v + a1 * k1v + a4 * k4v + a5 * k5v + a6 * k6v + a7 * k7v
    x = w + a1 * k1w + a4 * k4w + a5 * k5w + a6 * k6w + a7 * k7w
    k8w = ((a * v8 - sigma) / mu if g is None else g(a * v8 - sigma)) - v8
    k8v = (lam - gamma * v8 * v8 - exp(x)) / gamma
    a1, a4, a5, a6 = h * _A8_9_1, h * _A8_9_4, h * _A8_9_5, h * _A8_9_6
    a7, a8 = h * _A8_9_7, h * _A8_9_8
    v9 = v + a1 * k1v + a4 * k4v + a5 * k5v + a6 * k6v + a7 * k7v + a8 * k8v
    x = w + a1 * k1w + a4 * k4w + a5 * k5w + a6 * k6w + a7 * k7w + a8 * k8w
    k9w = ((a * v9 - sigma) / mu if g is None else g(a * v9 - sigma)) - v9
    k9v = (lam - gamma * v9 * v9 - exp(x)) / gamma
    a1, a4, a5, a6 = h * _A8_10_1, h * _A8_10_4, h * _A8_10_5, h * _A8_10_6
    a7, a8, a9 = h * _A8_10_7, h * _A8_10_8, h * _A8_10_9
    v10 = v + a1 * k1v + a4 * k4v + a5 * k5v + a6 * k6v + a7 * k7v + a8 * k8v + a9 * k9v
    x = w + a1 * k1w + a4 * k4w + a5 * k5w + a6 * k6w + a7 * k7w + a8 * k8w + a9 * k9w
    k10w = ((a * v10 - sigma) / mu if g is None else g(a * v10 - sigma)) - v10
    k10v = (lam - gamma * v10 * v10 - exp(x)) / gamma
    a1, a4, a5, a6 = h * _A8_11_1, h * _A8_11_4, h * _A8_11_5, h * _A8_11_6
    a7, a8, a9, a10 = h * _A8_11_7, h * _A8_11_8, h * _A8_11_9, h * _A8_11_10
    v11 = (v + a1 * k1v + a4 * k4v + a5 * k5v + a6 * k6v + a7 * k7v + a8 * k8v
           + a9 * k9v + a10 * k10v)
    x = (w + a1 * k1w + a4 * k4w + a5 * k5w + a6 * k6w + a7 * k7w + a8 * k8w
         + a9 * k9w + a10 * k10w)
    k11w = ((a * v11 - sigma) / mu if g is None else g(a * v11 - sigma)) - v11
    k11v = (lam - gamma * v11 * v11 - exp(x)) / gamma
    a1, a4, a5, a6 = h * _A8_12_1, h * _A8_12_4, h * _A8_12_5, h * _A8_12_6
    a7, a8, a9, a10, a11 = h * _A8_12_7, h * _A8_12_8, h * _A8_12_9, h * _A8_12_10, h * _A8_12_11
    v12 = (v + a1 * k1v + a4 * k4v + a5 * k5v + a6 * k6v + a7 * k7v + a8 * k8v
           + a9 * k9v + a10 * k10v + a11 * k11v)
    x = (w + a1 * k1w + a4 * k4w + a5 * k5w + a6 * k6w + a7 * k7w + a8 * k8w
         + a9 * k9w + a10 * k10w + a11 * k11w)
    k12w = ((a * v12 - sigma) / mu if g is None else g(a * v12 - sigma)) - v12
    k12v = (lam - gamma * v12 * v12 - exp(x)) / gamma
    b1, b6, b7, b8, b9 = h * _B8_1, h * _B8_6, h * _B8_7, h * _B8_8, h * _B8_9
    b10, b11, b12 = h * _B8_10, h * _B8_11, h * _B8_12
    w13 = (w + b1 * k1w + b6 * k6w + b7 * k7w + b8 * k8w + b9 * k9w + b10 * k10w
           + b11 * k11w + b12 * k12w)
    v13 = (v + b1 * k1v + b6 * k6v + b7 * k7v + b8 * k8v + b9 * k9v + b10 * k10v
           + b11 * k11v + b12 * k12v)
    i13 = (ii + b1 * k1i + b6 * v6 + b7 * v7 + b8 * v8 + b9 * v9 + b10 * v10
           + b11 * v11 + b12 * v12)
    k13w = ((a * v13 - sigma) / mu if g is None else g(a * v13 - sigma)) - v13
    k13v = (lam - gamma * v13 * v13 - exp(w13)) / gamma
    err5 = (
        h * (0.0 + _E5_1 * k1w + _E5_6 * k6w + _E5_7 * k7w + _E5_8 * k8w + _E5_9 * k9w
             + _E5_10 * k10w + _E5_11 * k11w + _E5_12 * k12w),
        h * (0.0 + _E5_1 * k1v + _E5_6 * k6v + _E5_7 * k7v + _E5_8 * k8v + _E5_9 * k9v
             + _E5_10 * k10v + _E5_11 * k11v + _E5_12 * k12v),
        h * (0.0 + _E5_1 * k1i + _E5_6 * v6 + _E5_7 * v7 + _E5_8 * v8 + _E5_9 * v9
             + _E5_10 * v10 + _E5_11 * v11 + _E5_12 * v12),
    )
    err3 = (
        h * (0.0 + _E3_1 * k1w + _E3_6 * k6w + _E3_7 * k7w + _E3_8 * k8w + _E3_9 * k9w
             + _E3_10 * k10w + _E3_11 * k11w + _E3_12 * k12w),
        h * (0.0 + _E3_1 * k1v + _E3_6 * k6v + _E3_7 * k7v + _E3_8 * k8v + _E3_9 * k9v
             + _E3_10 * k10v + _E3_11 * k11v + _E3_12 * k12v),
        h * (0.0 + _E3_1 * k1i + _E3_6 * v6 + _E3_7 * v7 + _E3_8 * v8 + _E3_9 * v9
             + _E3_10 * v10 + _E3_11 * v11 + _E3_12 * v12),
    )
    return (w13, v13, i13), (k13w, k13v, v13), (err5, err3)


def _tail_step(field, t, y, k1, h):
    """One DOP853 step of size h along a blow-up tail, from y = (ln w, r, I) at t = ln|v|.

    The tail's field (`_blow_up_tail`), of constants `field` = (vsign, mu,
    a, sigma, gamma, lam), is evaluated inline at each stage at t + _C8[i]
    * h with its closure's operations; the slopes depend on (t, ln w)
    alone, so only ln w has stage values.  Every sum runs left to right
    over the nonzero coefficients in tableau order, so the results equal
    the generic tableau loop's to the bit; stages 2 to 5, which no weight
    reads, form the slope of ln w alone.  Returns what `_dop853_step`
    returns: (y13, k13, (err5, err3)).
    """
    vsign, mu, a, sigma, gamma, lam = field
    exp = math.exp
    x, r, ii = y
    k1x, k1r, k1i = k1
    a1 = h * _A8_2_1
    vt = vsign * exp(t + _C8_2 * h)
    wt = exp(x + a1 * k1x)
    F = lam - gamma * vt * vt - wt
    ds = gamma * vt / F
    k2x = ((a * vt - sigma) / mu - vt) * ds
    a1, a2 = h * _A8_3_1, h * _A8_3_2
    vt = vsign * exp(t + _C8_3 * h)
    wt = exp(x + a1 * k1x + a2 * k2x)
    F = lam - gamma * vt * vt - wt
    ds = gamma * vt / F
    k3x = ((a * vt - sigma) / mu - vt) * ds
    a1, a3 = h * _A8_4_1, h * _A8_4_3
    vt = vsign * exp(t + _C8_4 * h)
    wt = exp(x + a1 * k1x + a3 * k3x)
    F = lam - gamma * vt * vt - wt
    ds = gamma * vt / F
    k4x = ((a * vt - sigma) / mu - vt) * ds
    a1, a3, a4 = h * _A8_5_1, h * _A8_5_3, h * _A8_5_4
    vt = vsign * exp(t + _C8_5 * h)
    wt = exp(x + a1 * k1x + a3 * k3x + a4 * k4x)
    F = lam - gamma * vt * vt - wt
    ds = gamma * vt / F
    k5x = ((a * vt - sigma) / mu - vt) * ds
    a1, a4, a5 = h * _A8_6_1, h * _A8_6_4, h * _A8_6_5
    vt = vsign * exp(t + _C8_6 * h)
    wt = exp(x + a1 * k1x + a4 * k4x + a5 * k5x)
    F = lam - gamma * vt * vt - wt
    ds = gamma * vt / F
    k6x, k6r, k6i = ((a * vt - sigma) / mu - vt) * ds, (lam - wt) / (vt * F), vt * ds
    a1, a4, a5, a6 = h * _A8_7_1, h * _A8_7_4, h * _A8_7_5, h * _A8_7_6
    vt = vsign * exp(t + _C8_7 * h)
    wt = exp(x + a1 * k1x + a4 * k4x + a5 * k5x + a6 * k6x)
    F = lam - gamma * vt * vt - wt
    ds = gamma * vt / F
    k7x, k7r, k7i = ((a * vt - sigma) / mu - vt) * ds, (lam - wt) / (vt * F), vt * ds
    a1, a4, a5, a6 = h * _A8_8_1, h * _A8_8_4, h * _A8_8_5, h * _A8_8_6
    a7 = h * _A8_8_7
    vt = vsign * exp(t + _C8_8 * h)
    wt = exp(x + a1 * k1x + a4 * k4x + a5 * k5x + a6 * k6x + a7 * k7x)
    F = lam - gamma * vt * vt - wt
    ds = gamma * vt / F
    k8x, k8r, k8i = ((a * vt - sigma) / mu - vt) * ds, (lam - wt) / (vt * F), vt * ds
    a1, a4, a5, a6 = h * _A8_9_1, h * _A8_9_4, h * _A8_9_5, h * _A8_9_6
    a7, a8 = h * _A8_9_7, h * _A8_9_8
    vt = vsign * exp(t + _C8_9 * h)
    wt = exp(x + a1 * k1x + a4 * k4x + a5 * k5x + a6 * k6x + a7 * k7x + a8 * k8x)
    F = lam - gamma * vt * vt - wt
    ds = gamma * vt / F
    k9x, k9r, k9i = ((a * vt - sigma) / mu - vt) * ds, (lam - wt) / (vt * F), vt * ds
    a1, a4, a5, a6 = h * _A8_10_1, h * _A8_10_4, h * _A8_10_5, h * _A8_10_6
    a7, a8, a9 = h * _A8_10_7, h * _A8_10_8, h * _A8_10_9
    vt = vsign * exp(t + _C8_10 * h)
    wt = exp(x + a1 * k1x + a4 * k4x + a5 * k5x + a6 * k6x + a7 * k7x + a8 * k8x + a9 * k9x)
    F = lam - gamma * vt * vt - wt
    ds = gamma * vt / F
    k10x, k10r, k10i = ((a * vt - sigma) / mu - vt) * ds, (lam - wt) / (vt * F), vt * ds
    a1, a4, a5, a6 = h * _A8_11_1, h * _A8_11_4, h * _A8_11_5, h * _A8_11_6
    a7, a8, a9, a10 = h * _A8_11_7, h * _A8_11_8, h * _A8_11_9, h * _A8_11_10
    vt = vsign * exp(t + _C8_11 * h)
    x1 = (x + a1 * k1x + a4 * k4x + a5 * k5x + a6 * k6x + a7 * k7x + a8 * k8x + a9 * k9x
          + a10 * k10x)
    wt = exp(x1)
    F = lam - gamma * vt * vt - wt
    ds = gamma * vt / F
    k11x, k11r, k11i = ((a * vt - sigma) / mu - vt) * ds, (lam - wt) / (vt * F), vt * ds
    a1, a4, a5, a6 = h * _A8_12_1, h * _A8_12_4, h * _A8_12_5, h * _A8_12_6
    a7, a8, a9, a10, a11 = h * _A8_12_7, h * _A8_12_8, h * _A8_12_9, h * _A8_12_10, h * _A8_12_11
    vt = vsign * exp(t + h)
    x1 = (x + a1 * k1x + a4 * k4x + a5 * k5x + a6 * k6x + a7 * k7x + a8 * k8x + a9 * k9x
          + a10 * k10x + a11 * k11x)
    wt = exp(x1)
    F = lam - gamma * vt * vt - wt
    ds = gamma * vt / F
    k12x, k12r, k12i = ((a * vt - sigma) / mu - vt) * ds, (lam - wt) / (vt * F), vt * ds
    b1, b6, b7, b8, b9 = h * _B8_1, h * _B8_6, h * _B8_7, h * _B8_8, h * _B8_9
    b10, b11, b12 = h * _B8_10, h * _B8_11, h * _B8_12
    x13 = (x + b1 * k1x + b6 * k6x + b7 * k7x + b8 * k8x + b9 * k9x + b10 * k10x + b11 * k11x
          + b12 * k12x)
    r13 = (r + b1 * k1r + b6 * k6r + b7 * k7r + b8 * k8r + b9 * k9r + b10 * k10r + b11 * k11r
          + b12 * k12r)
    i13 = (ii + b1 * k1i + b6 * k6i + b7 * k7i + b8 * k8i + b9 * k9i + b10 * k10i + b11 * k11i
          + b12 * k12i)
    # the slope at the result is at t + h, as stage 12: vt is stage 12's
    wt = exp(x13)
    F = lam - gamma * vt * vt - wt
    ds = gamma * vt / F
    k13 = ((a * vt - sigma) / mu - vt) * ds, (lam - wt) / (vt * F), vt * ds
    err5 = (
        h * (0.0 + _E5_1 * k1x + _E5_6 * k6x + _E5_7 * k7x + _E5_8 * k8x
             + _E5_9 * k9x + _E5_10 * k10x + _E5_11 * k11x + _E5_12 * k12x),
        h * (0.0 + _E5_1 * k1r + _E5_6 * k6r + _E5_7 * k7r + _E5_8 * k8r
             + _E5_9 * k9r + _E5_10 * k10r + _E5_11 * k11r + _E5_12 * k12r),
        h * (0.0 + _E5_1 * k1i + _E5_6 * k6i + _E5_7 * k7i + _E5_8 * k8i
             + _E5_9 * k9i + _E5_10 * k10i + _E5_11 * k11i + _E5_12 * k12i),
    )
    err3 = (
        h * (0.0 + _E3_1 * k1x + _E3_6 * k6x + _E3_7 * k7x + _E3_8 * k8x
             + _E3_9 * k9x + _E3_10 * k10x + _E3_11 * k11x + _E3_12 * k12x),
        h * (0.0 + _E3_1 * k1r + _E3_6 * k6r + _E3_7 * k7r + _E3_8 * k8r
             + _E3_9 * k9r + _E3_10 * k10r + _E3_11 * k11r + _E3_12 * k12r),
        h * (0.0 + _E3_1 * k1i + _E3_6 * k6i + _E3_7 * k7i + _E3_8 * k8i
             + _E3_9 * k9i + _E3_10 * k10i + _E3_11 * k11i + _E3_12 * k12i),
    )
    return (x13, r13, i13), k13, (err5, err3)


# Smallest step, relative to max(1, |s|), that still moves s.
_H_FLOOR_REL = 16.0 * sys.float_info.epsilon


def _h_floor(s: float) -> float:
    return _H_FLOOR_REL * max(1.0, abs(s))


def _initial_h(f, t, y, k1, sgn, ctr: Controls, span: float, order: int = 5) -> float:
    """Starting step for f(t, y) -> slopes, at most h_max and span, for a
    pair whose error exponent is -1/order (Hairer's hinit), on a
    3-component state: each RMS norm sums its three terms left to right."""
    y0, y1, y2 = y
    k10, k11, k12 = k1
    atol, rtol = ctr.atol, ctr.rtol
    sc0, sc1, sc2 = atol + rtol * abs(y0), atol + rtol * abs(y1), atol + rtol * abs(y2)
    d0 = math.sqrt(((y0 / sc0) ** 2 + (y1 / sc1) ** 2 + (y2 / sc2) ** 2) / 3)
    d1 = math.sqrt(((k10 / sc0) ** 2 + (k11 / sc1) ** 2 + (k12 / sc2) ** 2) / 3)
    # a NaN norm (a component at -inf: ln w on the invariant axis w = 0) takes 1e-6
    h0 = 0.01 * d0 / d1 if (d0 >= 1e-5 and d1 >= 1e-5) else 1e-6
    h0 = min(h0, ctr.h_max, span)
    if h0 == 0.0:
        # a slope too large for floats (d1 = inf) leaves no step to try
        raise StepSizeUnderflow(f"no initial step: slopes {list(k1)} at state {list(y)}")
    f1 = None
    for _ in range(80):
        try:
            sh = sgn * h0
            f1 = f(t + sh, (y0 + sh * k10, y1 + sh * k11, y2 + sh * k12))
            break
        except (DomainError, ZeroDivisionError, OverflowError):
            h0 *= 0.25
    if f1 is None:
        raise StepSizeUnderflow("cannot take even an initial trial step")
    f10, f11, f12 = f1
    d2 = math.sqrt(
        (((f10 - k10) / sc0) ** 2 + ((f11 - k11) / sc1) ** 2 + ((f12 - k12) / sc2) ** 2) / 3
    ) / h0
    dm = max(d1, d2)
    h1 = (0.01 / dm) ** (1.0 / order) if dm > 1e-15 else max(1e-6, h0 * 1e-3)
    return max(min(100.0 * h0, h1, ctr.h_max, span), 1e3 * _h_floor(0.0))


def _march(step, f, t, y, k1, t_end, h, atols, rtol, ctr: Controls, order: int = 5):
    """Adaptive march on the field f from (t, y), with cached slope data k1, to t_end.

    `step(f, t, y, k1, h)` takes one step of signed size h on f, a function
    or the constants of a kernel's inline field, and returns (y1, k, est): the
    result, the slope data the next step starts from (FSAL: the slope at
    y1, or stage slopes ending with it) and the error estimate of the
    3-component state.  Errors are scaled by
    atols[c] + rtol * max(|y[c]|, |y1[c]|), a leg's ln W too (near W = 1
    atol alone), except the ln w of an orbit or a tail, whose scale
    atols[0] + rtol * max(1, w1/w) is w's relative scale carried over to ln w.
    The error norm of a graph-leg DP54 step (order 5, `est` the error per
    component) is the RMS of the scaled errors e; that of a DOP853 step of
    an orbit or a tail (order 8, state (ln w, ., I), `est` the pair (err5,
    err3) of its 5th- and 3rd-order estimates) is
    |e5|^2 / sqrt(3 * (|e5|^2 + 0.01 * |e3|^2)), as in Hairer's dop853.f.
    A step raising DomainError, ZeroDivisionError or OverflowError counts
    as infinite error.  The controller is Gustafsson's predictive one
    (Hairer & Wanner, Solving ODEs II, IV.8; RADAU5's `pred`): to the I
    controller's fac = 0.9 * err^(-1/order), an accepted step after an
    earlier accepted one (size h_acc, error err_acc) adds the bound
    fac * (h/h_acc) * (max(err_acc, 0.01)/err)^(1/order), so a shrinking
    best step does not make rejections alternate with acceptances.  fac is
    clamped to [0.2, 10], h to h_max, and h does not grow after a rejection.

    Yields each accepted step as (t, y, k1, h, t1, y1, k), the last one
    landing on t_end exactly.  Raises Inconclusive after max_steps attempts
    and StepSizeUnderflow, chained from the last rejection's exception if
    it raised one, when a rejected step falls under the float spacing.
    """
    a0, a1, a2 = atols
    expo = -1.0 / order
    sgn = math.copysign(1.0, t_end - t)
    exp, sqrt, h_max = math.exp, math.sqrt, ctr.h_max
    safety, fac_min, fac_max = _SAFETY, _FAC_MIN, _FAC_MAX
    just_rejected = False
    h_acc = err_acc = None  # size and error of the last accepted step
    cause = None
    for _ in range(ctr.max_steps):
        remaining = abs(t_end - t)
        # The landing step ends on t_end itself, so no stage passes it;
        # stretching up to 1% leaves no sliver step before it.
        landing = 1.01 * h >= remaining
        h_try = remaining if landing else h
        try:
            y1, k, est = step(f, t, y, k1, sgn * h_try)
            # rtol * max(|y[c]|, |y1[c]|); a NaN in y1 makes the scale, and
            # so the error, NaN
            x, x1 = abs(y[1]), abs(y1[1])
            sc1 = a1 + rtol * (x if x >= x1 else x1)
            x, x1 = abs(y[2]), abs(y1[2])
            sc2 = a2 + rtol * (x if x >= x1 else x1)
            if order == 5:
                x, x1 = abs(y[0]), abs(y1[0])
                sc0 = a0 + rtol * (x if x >= x1 else x1)
                e0, e1, e2 = est
                e0, e1, e2 = e0 / sc0, e1 / sc1, e2 / sc2
                err = sqrt((e0 * e0 + e1 * e1 + e2 * e2) / 3.0)
            else:
                # on the axis ln w is -inf at both ends: exp(nan) loses to 1
                x = exp(y1[0] - y[0])
                sc0 = a0 + rtol * (x if x > 1.0 else 1.0)
                (e0, e1, e2), (d0, d1, d2) = est
                e0, e1, e2 = e0 / sc0, e1 / sc1, e2 / sc2
                d0, d1, d2 = d0 / sc0, d1 / sc1, d2 / sc2
                n5 = e0 * e0 + e1 * e1 + e2 * e2
                deno = n5 + 0.01 * (d0 * d0 + d1 * d1 + d2 * d2)
                err = n5 / sqrt(3.0 * deno) if deno != 0.0 else 0.0
            cause = None
        except (DomainError, ZeroDivisionError, OverflowError) as exc:
            err, cause = math.inf, exc
        # NaN fails every comparison: a state gone non-finite is rejected
        # until the step size underflows.  The comparisons select as min and
        # max would, ties and NaN included.
        if err <= 1.0:
            fac = fac_max if err == 0.0 else safety * err ** expo
            if h_acc is not None and err != 0.0:
                pred = fac * (h_try / h_acc) * (err_acc / err) ** -expo
                if pred < fac:
                    fac = pred
            h_acc, err_acc = h_try, err if err > 1e-2 else 1e-2
            grow, accepted = (1.0 if just_rejected else fac_max), True
        else:
            fac, grow, accepted = safety * err ** expo, 1.0, False
        if not fac > fac_min:
            fac = fac_min
        h = h_try * (fac if fac < grow else grow)
        if h_max < h:
            h = h_max
        just_rejected = not accepted
        if not accepted:
            if h < _h_floor(t):
                raise StepSizeUnderflow(
                    f"step size underflow at {float(t)!r}, state {[float(c) for c in y]}"
                ) from cause
            continue
        t1 = t_end if landing else t + sgn * h_try
        yield t, y, k1, sgn * h_try, t1, y1, k
        if landing:
            return
        t, y, k1 = t1, y1, k
    raise Inconclusive(
        f"step budget {ctr.max_steps} exhausted at {float(t)!r}, state {[float(c) for c in y]}"
    )


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
    `equilibrium_index` indexing `equilibria(p)`.  The orbit steps with
    DOP853 in the state (ln w, v, I) (see the module docstring); events are
    located on a step's quintic Hermite interpolant, from its ends and an
    exact half step, and corrected on its partial steps (`_first_event`).
    Samples, events and the capture balls see w = e^(ln w).
    """
    ctr = controls or Controls()
    if direction not in (FORWARD, BACKWARD):
        raise ValueError(f"direction must be 'forward' or 'backward', got {direction!r}")
    if not (math.isfinite(w0) and math.isfinite(v0) and math.isfinite(s0)):
        raise ValueError(f"launch point must be finite, got ({s0!r}, {w0!r}, {v0!r})")
    if w0 < 0.0:
        raise ValueError("w0 must be nonnegative")
    sgn = 1.0 if direction == FORWARD else -1.0
    f, field = make_log_rhs(p), _orbit_field(p)

    events = list(extra_events)
    # each event, its fn, and whether it fires rising and falling
    crossings = [(ev, ev.fn, ev.direction >= 0, ev.direction <= 0) for ev in events]
    # The built-in events are level crossings of ln w (component 0) or v
    # (1), tested on the states directly: for e = x - level, x_prev < level
    # <= x_new is exactly e_prev < 0 <= e_new in IEEE arithmetic.  Their
    # EventSpec, on (s, w, v), serves only to locate the crossing.
    levels: list[tuple[int, float, int, EventSpec]] = []

    def level_event(c: int, level: float, direction: int, kind: str) -> None:
        # a level of w is given, and located, in w, and tested in ln w
        fn = (lambda s, w, v: w - level) if c == 0 else (lambda s, w, v: v - level)
        x_level = math.log(level) if c == 0 else level
        levels.append((c, x_level, direction, EventSpec(fn=fn, kind=kind, direction=direction)))

    side = 0  # the edge whose switch level the launch is on or past
    if p.limiter.saturated:
        # Within 1e-3 of the domain's width from an edge (levels[0] and [1]),
        # an orbit is marched in q or in ln w (`_flux_boundary_leg`).
        lo, hi = p.slope_domain
        band = 1e-3 * (hi - lo)
        level_event(1, hi - band, +1, _EDGE)
        level_event(1, lo + band, -1, _EDGE)
        side = 1 if v0 >= hi - band else -1 if v0 <= lo + band else 0
    if ctr.w_min > 0.0 and w0 > ctr.w_min:
        level_event(0, ctr.w_min, -1, W_VANISHED)
    level_event(1, ctr.v_max, +1, V_BLOW_UP_PLUS)
    level_event(1, -ctr.v_max, -1, V_BLOW_UP_MINUS)
    # Past |v| = v_sw, v' < 0 and v runs outward monotonically to blow-up
    # (-inf forward, +inf backward) with no equilibrium in the way, so the
    # rest of the orbit is marched in tau = ln|v| (see `_blow_up_tail`).
    v_sw = 10.0 * max(p.v_star, abs(v0))
    if not p.limiter.saturated and 0.0 < v_sw < ctr.v_max:
        level_event(1, -sgn * v_sw, -int(sgn), _TAIL)
    # What ends a flux-boundary leg or a tail: the extra events, the span,
    # and for a leg the w_min level (a saturated limiter's orbit takes no
    # tail).  A tail runs on to blow-up, where w falls like |v|^-(a/mu - 1),
    # so w_min would end it short of its edge.
    s_end = s0 + sgn * ctr.s_max
    ends = list(extra_events)
    if p.limiter.saturated:
        ends += [ev for c, _, _, ev in levels if c == 0]
    ends.append(EventSpec(fn=lambda s, w, v: s - s_end, kind=MAX_SPAN, direction=int(sgn)))

    # While the state stays strictly between the nearest levels around the
    # state the march in s starts from, no level lies between two successive
    # states, so no step can cross one.  A level at the start value bounds
    # the box: a step off a level cannot cross it, but a later step back could.
    def box(c: int, x0: float) -> tuple[float, float]:
        below = [lv for cc, lv, _, _ in levels if cc == c and lv <= x0]
        above = [lv for cc, lv, _, _ in levels if cc == c and lv >= x0]
        return max(below, default=-math.inf), min(above, default=math.inf)

    lw0 = math.log(w0) if w0 > 0.0 else -math.inf  # the axis w = 0 at -inf

    eq_data = [
        (we, ve, ctr.eq_tol * (1.0 + math.hypot(we, ve))) for we, ve in equilibrium_points(p)
    ]
    # A state in a ball is within rad * (1 + 2 eps) of its centre, inside the
    # centre -/+ 2 * rad, so this box around all the balls only skips misses.
    eq_w_lo = min((we - 2.0 * rad for we, _, rad in eq_data), default=math.inf)
    eq_w_hi = max((we + 2.0 * rad for we, _, rad in eq_data), default=-math.inf)
    eq_v_lo = min((ve - 2.0 * rad for _, ve, rad in eq_data), default=math.inf)
    eq_v_hi = max((ve + 2.0 * rad for _, ve, rad in eq_data), default=-math.inf)

    def eq_ball(w: float, v: float) -> int | None:
        for idx, (we, ve, rad) in enumerate(eq_data):
            dw, dv = w - we, v - ve
            # hypot >= max(|dw|, |dv|), so the box test only skips misses
            if abs(dw) <= rad and abs(dv) <= rad and math.hypot(dw, dv) <= rad:
                return idx
        return None

    samples = ss, ws, vs, iis = [s0], [w0], [v0], [0.0]
    add_s, add_w, add_v, add_i = ss.append, ws.append, vs.append, iis.append
    exp, eq_dwell = math.exp, ctr.eq_dwell
    # a launch on or past a switch level starts on its flux-boundary leg
    term, leg_side, y = None, side, (lw0, v0, 0.0)
    while term is None:
        if leg_side:
            term = _flux_boundary_leg(p, leg_side, sgn, ss[-1], y, 2.0 * band, ends, ctr, samples)
            if term is not None:
                break
        # the march in s, from the launch or from where a leg handed back
        s, w, v = ss[-1], ws[-1], vs[-1]
        if leg_side:
            # back to the leg at the switch level, or at half the distance here
            edge = hi if leg_side > 0 else lo
            d = min(band, 0.5 * leg_side * (edge - v))
            level_event(1, edge - leg_side * d, leg_side, _EDGE)
            levels[(1 - leg_side) // 2] = levels.pop()
        y = (math.log(w) if w > 0.0 else -math.inf, v, iis[-1])
        (lw_lo, lw_hi), (v_lo, v_hi) = box(0, y[0]), box(1, v)
        k1 = f(y[0], v) + (v,)
        e_prev = [ev.fn(s, w, v) for ev in events]
        dwell_idx, dwell_s, leg_side, in_box = eq_ball(w, v), s, 0, False
        h = _initial_h(lambda t, y: f(y[0], y[1]) + (y[1],), s, y, k1, sgn, ctr, ctr.s_max, 8)
        march = _march(
            _dop853_step, field, s, y, k1, s_end, h, (0.0, ctr.atol, ctr.atol), ctr.rtol, ctr, 8
        )
        for s_old, y_old, k1_old, h, s, y, k13 in march:
            w_old, w, v = w, exp(y[0]), y[1]
            # --- event detection along this accepted step ---
            # extra events come first, so they win ties; `fired` lists
            # (EventSpec, value at the step's end), and is None when none fired
            fired = None
            if events:
                e_new = []
                for (ev, fn, up, down), e_old in zip(crossings, e_prev):
                    e = fn(s, w, v)
                    e_new.append(e)
                    if (up and e_old < 0.0 <= e) or (down and e_old > 0.0 >= e):
                        fired = (fired or []) + [(ev, e)]
                e_prev = e_new
            was_in_box, in_box = in_box, lw_lo < y[0] < lw_hi and v_lo < v < v_hi
            if not (was_in_box and in_box):
                for c, level, d, ev in levels:
                    x_old, x = y_old[c], y[c]
                    if (x_old < level <= x) if d > 0 else (x_old > level >= x):
                        fired = (fired or []) + [(ev, ev.fn(s, w, v))]
            if fired:
                ev = fired[0][0]
                if ev.kind == _TAIL and len(fired) == 1 and s != s_end:
                    # no answer reads where the switch lies, so the tail starts
                    # at the end of the step that crossed it; on a step landing
                    # on s_end it is located, since the tail's MAX_SPAN event
                    # fires only from a start short of s_end
                    s_ev, y_ev = s, y
                else:
                    ev, theta, y_ev = _first_event(
                        (_dop853_step, field, 8), s_old, y_old, k1_old, h, y, k13, fired,
                        (s_old, w_old, y_old[1]), _orbit_state,
                    )
                    s_ev = s if theta >= 1.0 else s_old + h * theta
                w_ev = exp(y_ev[0])
                add_s(s_ev), add_w(w_ev), add_v(y_ev[1]), add_i(y_ev[2])
                if ev.kind == _TAIL:
                    term = _blow_up_tail(p, s_ev, y_ev, ends, ctr, samples)
                elif ev.kind == _EDGE:
                    # the level's direction is the side of its edge
                    leg_side, y = ev.direction, y_ev
                else:
                    term = TerminationEvent(kind=ev.kind, s=s_ev, w=w_ev, v=y_ev[1])
                break

            add_s(s), add_w(w), add_v(v), add_i(y[2])

            # --- equilibrium dwell ---
            # the box around all the balls first: most states are far from them
            if eq_w_lo <= w <= eq_w_hi and eq_v_lo <= v <= eq_v_hi:
                idx = eq_ball(w, v)
            else:
                idx = None
            if idx != dwell_idx:
                dwell_idx, dwell_s = idx, s
            elif idx is not None and abs(s - dwell_s) >= eq_dwell:
                term = TerminationEvent(kind=CONVERGED, s=s, w=w, v=v, equilibrium_index=idx)
                break
        else:
            term = TerminationEvent(kind=MAX_SPAN, s=s, w=w, v=y[1])

    if term.kind == MAX_SPAN and _looks_bounded(ws, vs):
        term = replace(term, kind=BOUNDED)

    return _assemble(ss, ws, vs, iis, direction, term)


def _step_quintic(kernel, t, y, k1, h, y1, k_end):
    """The quintic Hermite interpolant of the step of signed size h that
    `kernel` = (step, constants, order) took from (t, y) to y1, k1 and
    k_end the slope data there; see Hairer, Norsett & Wanner, Solving ODEs
    I, II.6.

    Its data are the states and slopes at the step's start, at its middle
    (the exact half step, whose slope data give the slope there) and at its
    end.  The slope data of a DOP853 kernel (order 8) are the slope, those
    of a DP54 kernel (order 5) its stage slopes, the slope last.  Returns
    per component of y the coefficients (c0, ..., c5) of its Newton form on
    the nodes 0, 0, 1/2, 1/2, 1, 1 in the step fraction theta
    (`_quintic_at`).  If the half step leaves the field's domain, the
    middle's data are those of the cubic Hermite interpolant of the ends,
    and the quintic is that cubic.
    """
    step, consts, order = kernel
    try:
        ym, km, _ = step(consts, t, y, k1, 0.5 * h)
    except (DomainError, ZeroDivisionError, OverflowError):
        ym = km = None
    if order == 5:  # stage slopes, the slope last
        k1, k_end, km = k1[-1], k_end[-1], None if km is None else km[-1]
    coeffs = []
    for c, (y0, y1c) in enumerate(zip(y, y1)):
        d0, d1 = h * k1[c], h * k_end[c]
        if ym is None:
            mid, dm = 0.5 * (y0 + y1c) + 0.125 * (d0 - d1), 1.5 * (y1c - y0) - 0.25 * (d0 + d1)
        else:
            mid, dm = ym[c], h * km[c]
        # the divided differences of orders 1 (p) to 5 on the nodes
        p0, p1 = 2.0 * (mid - y0), 2.0 * (y1c - mid)
        q0, q1, q2, q3 = 2.0 * (p0 - d0), 2.0 * (dm - p0), 2.0 * (p1 - dm), 2.0 * (d1 - p1)
        r0, r1, r2 = 2.0 * (q1 - q0), q2 - q1, 2.0 * (q3 - q2)
        s0 = r1 - r0
        coeffs.append((y0, d0, q0, r0, s0, r2 - r1 - s0))
    return coeffs


def _quintic_at(c: tuple, theta: float) -> float:
    """The value of the interpolant of coefficients c (`_step_quintic`) at
    fraction theta of the step."""
    c0, c1, c2, c3, c4, c5 = c
    t = theta - 0.5
    return c0 + theta * (c1 + theta * (c2 + t * (c3 + t * (c4 + (theta - 1.0) * c5))))


def _first_event(kernel, t, y, k1, h, y1, k_end, fired, start, state):
    """Locate the earliest of the events that fired on the step of signed
    size h that `kernel` = (step, constants, order) took from (t, y) to
    y1, k1 and k_end the slope data at its ends (`_step_quintic`).

    `state(t, y)` maps the march's state to (s, w, v), on which the events
    are functions; `fired` lists (EventSpec, value at the step's end) in
    tie-breaking order, and `start` is (s, w, v) at the step's start.  Each
    event's fraction theta of the step is found by Brent's method on the
    step's quintic Hermite interpolant; the earliest, the first listed
    winning ties, is then corrected by one Newton step on the exact partial
    step, with the slope of the event function along the interpolant, so
    the event state is a partial-step state of the kernel's order.
    Returns (event, theta, state y there).
    """
    step, consts, _ = kernel
    coeffs = _step_quintic(kernel, t, y, k1, h, y1, k_end)

    def at(theta: float) -> tuple[float, float, float]:
        return state(t + h * theta, [_quintic_at(c, theta) for c in coeffs])

    best = None
    for ev, e_end in fired:
        fn = ev.fn

        def phi(theta: float) -> float:
            return fn(*start) if theta <= 0.0 else e_end if theta >= 1.0 else fn(*at(theta))

        # loose: the Newton correction below squares this error, and events
        # closer than 1e-9 of a step apart are simultaneous for any caller
        theta = 1.0 if e_end == 0.0 else brentq(phi, 0.0, 1.0, xtol=1e-9)
        if best is None or theta < best[0]:
            best = (theta, ev)
    theta, ev = best
    if theta >= 1.0:
        return ev, 1.0, y1
    try:
        yt = step(consts, t, y, k1, h * theta)[0]
        e = ev.fn(*state(t + h * theta, yt))
        if e != 0.0:
            d = 1e-6
            slope = (ev.fn(*at(theta + d)) - ev.fn(*at(theta - d))) / (2.0 * d)
            newton = e / slope if slope != 0.0 else math.nan
            if math.isfinite(newton):
                theta = min(max(theta - newton, 0.0), 1.0)
                yt = y1 if theta == 1.0 else step(consts, t, y, k1, h * theta)[0]
    except (DomainError, ZeroDivisionError, OverflowError):
        yt = tuple(_quintic_at(c, theta) for c in coeffs)
    return ev, theta, yt


def _blow_up_tail(p: ModelParams, s, y, ends, ctr: Controls, samples) -> TerminationEvent:
    """March an orbit from (s, y) = (s, (ln w, v, I)), past the switch level, to blow-up.

    There |v| > v_star, so v' = F = (lam - gamma*v^2 - w)/gamma < 0 and v
    runs monotonically outward.  `_march_to_end` marches it in tau = ln|v|
    up to ln v_max, ending V_BLOW_UP_* unless one of the events `ends`
    fires first, located on the tail step's quintic (`_first_event`).  Its
    state is (ln w, r = s - 1/v, I), with slopes (g(a*v - sigma) - v) *
    v/F, (lam - w)/(gamma*v*F) and v^2/F, where g(y) = y/mu: tails run
    for linear limiters only.  r is carried in place of s because s moves
    by 1/|v| per unit of tau while its error scale is |s|; r moves by
    O(|v|^-3) and tends to the edge itself.  The tail steps with DOP853 (`_tail_step`) under the orbit's error norm:
    about 2 to 3 steps per decade of v, where DP54 in s took about 88.
    """
    mu, a, sigma, gamma, lam = p.limiter.mu, p.a, p.sigma, p.gamma, p.lam
    lw, v, ii = y
    vsign = math.copysign(1.0, v)

    def field(t, x):
        vt = vsign * math.exp(t)
        wt = math.exp(x)
        F = lam - gamma * vt * vt - wt
        ds = gamma * vt / F
        return ((a * vt - sigma) / mu - vt) * ds, (lam - wt) / (vt * F), vt * ds

    def state(t, y):
        # the march lands on t_end exactly, where |v| is v_max itself
        vt = vsign * (ctr.v_max if t == t_end else math.exp(t))
        return y[1] + 1.0 / vt, math.exp(y[0]), vt

    # w = 0 is invariant: ln w stays -inf, and its scaled error 0
    t_end = math.log(ctr.v_max)
    kind = V_BLOW_UP_PLUS if vsign > 0.0 else V_BLOW_UP_MINUS
    return _march_to_end(
        field, state, math.log(abs(v)), (lw, s - 1.0 / v, ii), t_end, ends, ctr, samples, kind,
        (_tail_step, (vsign, mu, a, sigma, gamma, lam), 8),
    )


def _flux_boundary_leg(p: ModelParams, side, sgn, s, y, d_out, ends, ctr: Controls, samples):
    """March an orbit in direction sgn of s from (s, y) = (s, (ln w, v, I))
    near the flux boundary on `side` to the edge (FLUX_BOUNDARY_*), or to
    where the march in s takes it on (None).

    Heading for the edge, it is marched in q, v = v_edge - side*q^m, on
    the graph field with state (ln w, s - s_start, I), regular up to q = 0
    while F = (lam - gamma*v^2 - w)/gamma keeps its sign; s is carried
    relative to its start, so its error scale is the leg's own change in s.
    Where F vanishes short of the edge, the orbit turns and the march in q
    stalls.  From there, or heading out, it is marched in ln w (direction
    side*sgn), regular through a turn, with state (q, s - s_start, I), out
    to |v - v_edge| = d_out, or to the largest d_out/2^k where g - v, a
    function of v alone, has the sign of side as at the start.  Where it
    has not, g is moderate, and the march in s takes over.  It takes over
    at once where the out level is not ahead of the start, as for a launch
    on the switch level: the out event fires only rising from a negative
    value, so it could not end the march in ln w, which would run on into
    a root of g - v and stall there.  Both marches locate their events,
    `ends` and the out level, on the DP54 step's quintic (`_first_event`).
    """
    zone = BoundaryZone.of(p, side)
    leg = zone.leg(p)
    gamma, lam = p.gamma, p.lam
    lw, v, ii = y
    dsign = math.copysign(1.0, lam - gamma * v * v - math.exp(lw))
    field, floor = _graph_field(p, leg, dsign, v, zone.v_edge)
    q, q_out = (max(d, 0.0) ** (1.0 / zone.m) for d in (side * (zone.v_edge - v), d_out))
    last = [q, (lw, 0.0, ii)]  # the last state the march in q reached

    def state(q, y):
        last[:] = q, y
        return s + y[1], math.exp(y[0]), zone.v(q)

    def turn_field(x, q):
        v, dv, drive = leg(q if q >= 0.0 else math.nan)  # no step passes the edge
        return (lam - gamma * v * v - math.exp(x)) / (gamma * drive), dv / drive, v * dv / drive

    kind = FLUX_BOUNDARY_HIGH if side > 0 else FLUX_BOUNDARY_LOW
    if side * sgn * dsign > 0.0:
        kernel = _boundary_kernel(p, zone, dsign, floor)
        with contextlib.suppress(StepSizeUnderflow, DomainError):  # the turn stalls it
            return _march_to_end(
                field, state, q, (lw, 0.0, ii), 0.0, ends, ctr, samples, kind, kernel
            )
    q, (lw, ds, ii) = last
    # drive = (g - v) * dv/dq, and dv/dq has the sign of -side
    while q_out > q and leg(q_out)[2] >= 0.0:
        q_out *= 0.5 ** (1.0 / zone.m)
    v_out = zone.v(q_out)
    # the out event fires only rising from a negative start value
    if leg(q)[2] >= 0.0 or side * (v_out - zone.v(q)) >= 0.0:
        return None
    out = EventSpec(fn=lambda s, w, v: side * (v_out - v), kind=None, direction=1)
    term = _march_to_end(
        turn_field, lambda x, y: state(y[0], (x, *y[1:])), lw, (q, ds, ii),
        side * sgn * math.inf, [*ends, out], ctr, samples, None,
    )
    return term if term.kind else None


def _leg_march(field, t, y, t_end, ctr: Controls, kernel=None):
    """The `_march` of a leg on field(t, x) from (t, y) to t_end.

    `kernel` is (step, constants, order): a step that evaluates the field
    inline from constants, `_boundary_step` (DP54, order 5) or `_tail_step`
    (DOP853, order 8, under the orbit's error norm); None is DP54's
    `_graph_step` on field itself.  field gives the march's first slopes.
    """
    step, consts, order = kernel or (_graph_step, field, 5)
    k1 = field(t, y[0])
    span = t_end - t
    h = _initial_h(
        lambda t, y: field(t, y[0]), t, y, k1, math.copysign(1.0, span), ctr, abs(span), order
    )
    if order == 8:
        return _march(step, consts, t, y, k1, t_end, h, (0.0, ctr.atol, ctr.atol), ctr.rtol, ctr, 8)
    return _march(step, consts, t, y, (k1,), t_end, h, (ctr.atol,) * 3, max(ctr.rtol, 1e-13), ctr)


def _march_to_end(field, state, t, y, t_end, ends, ctr: Controls, samples, kind, kernel=None):
    """March the rest of an orbit from (t, y) to t_end in a variable t other than s.

    The slopes `field(t, x)` of the state y = (x, ., I) depend on (t, x)
    alone, so the leg steps like a graph leg (`_leg_march`, with `kernel`),
    and h_max caps its step in t.  `state(t, y)` is (s, w, v), appended to
    the lists `samples` per step.  The first of the events `ends` on (s, w,
    v) to fire ends the leg, located as an orbit's events are
    (`_first_event`), else it ends `kind` at t_end.
    """
    kernel = kernel or (_graph_step, field, 5)
    ss, ws, vs, iis = samples
    prev = state(t, y)
    e_prev = [ev.fn(*prev) for ev in ends]
    for t_old, y_old, k1, h, t, y, k in _leg_march(field, t, y, t_end, ctr, kernel):
        now = state(t, y)
        e_new = [ev.fn(*now) for ev in ends]
        # (EventSpec, value at the step's end) of each event that fired, as
        # `integrate` lists them
        fired = [
            (ev, e) for ev, e_old, e in zip(ends, e_prev, e_new)
            if (ev.direction >= 0 and e_old < 0.0 <= e) or (ev.direction <= 0 and e_old > 0.0 >= e)
        ]
        if fired:
            ev, theta, y = _first_event(kernel, t_old, y_old, k1, h, y, k, fired, prev, state)
            if theta < 1.0:
                t = t_old + h * theta
            now = state(t, y)
        ss.append(now[0]), ws.append(now[1]), vs.append(now[2]), iis.append(y[2])
        if fired:
            kind = ev.kind
            break
        prev, e_prev = now, e_new
    return TerminationEvent(kind=kind, s=now[0], w=now[1], v=now[2])


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


def _assemble(ss, ws, vs, iis, direction, term) -> Trajectory:
    s, w, v, ii = ss, ws, vs, iis
    if direction == BACKWARD:
        s, w, v, ii = s[::-1], w[::-1], v[::-1], ii[::-1]
    # An event located at the far tip of a step can land within float
    # noise of the accepted sample; keep the later (event) sample so
    # downstream difference quotients never divide by a noise gap.  s is
    # monotone, so when the smallest gap clears the floor at the larger end
    # it clears every sample's floor and all are kept.  A forward run keeps
    # its launch, where merge_trajectories joins it, in place of the next,
    # also when that is its only other sample.
    floor = _H_FLOOR_REL * max(1.0, abs(s[0]), abs(s[-1]))
    if len(s) > 1 and not min(map(operator.sub, s[1:], s)) > floor:
        keep = [
            k for k, (x, y) in enumerate(zip(s, s[1:]))
            if y - x > _H_FLOOR_REL * max(1.0, abs(x))
        ]
        keep.append(len(s) - 1)
        if direction == FORWARD:
            keep[0] = 0
        s, w, v, ii = ([x[k] for k in keep] for x in (s, w, v, ii))

    edge = None
    if term.kind in (V_BLOW_UP_PLUS, V_BLOW_UP_MINUS):
        # near blow-up v' ~ -v^2, so the asymptote sits at s - 1/v + O(|v|^-3)
        edge = term.s - 1.0 / term.v
    elif term.kind in (CONVERGED, W_VANISHED):
        edge = math.inf if direction == FORWARD else -math.inf
    elif term.kind in (FLUX_BOUNDARY_LOW, FLUX_BOUNDARY_HIGH):
        # a flux-boundary leg ends on the edge itself
        edge = term.s
    s_minus, s_plus = (None, edge) if direction == FORWARD else (edge, None)

    return Trajectory(s=s, w=w, v=v, integral=ii, direction=direction, termination=term,
                      s_minus=s_minus, s_plus=s_plus)


def merge_trajectories(pieces: Sequence[Trajectory]) -> Trajectory:
    """Chain trajectories whose endpoint states coincide into one.

    Pieces are given in ascending-s order; piece k's last sample must match
    piece k+1's first sample in (w, v) to within 1e-6 relative (AnchorMismatch
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
        if dw > _SEAM_REL * (1.0 + abs(w_end)) or dv > _SEAM_REL * (1.0 + abs(v_end)):
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
    return Trajectory(s=s, w=w, v=v, integral=ii, direction=BOTH, termination=high_ev,
                      termination_start=low_ev, s_minus=first.s_minus, s_plus=s_plus)


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

    @classmethod
    def of(cls, p: ModelParams, side: int) -> BoundaryZone:
        """The zone of the flux boundary of p on `side`."""
        lo, hi = p.slope_domain
        return cls(v_edge=hi if side > 0 else lo, side=side, m=boundary_exponent(p.limiter))

    def leg(self, p: ModelParams):
        """leg(q) = (v, dv/dq, drive = (g(a*v - sigma) - v) * dv/dq) on Python
        floats, v as .v gives it; the boundary factor q^(m-1) * g keeps drive
        regular at q = 0 (`make_boundary_factor` given v_edge)."""
        return make_boundary_factor(p.limiter, p.a, self.side, self.v_edge)


@dataclass
class GraphSolution:
    """Orbit as a graph W(v) along a monotone-v leg, anchor to target.

    Arrays are in path order (from the anchor toward the target) and hold
    the solver's dense output at the sample grid: W, and s and I = integral
    of v ds, which the solver carries along with ln W (W[0] is W_anchor
    itself).  `dense` is that output as a function of the independent
    variable, with state (ln W, s, I): per step, a quartic in the step
    fraction evaluated by Horner's rule.  When `boundary` is set, the leg was
    integrated in the regularized variable q of that zone, and `q` holds
    the matching samples (ending at q = 0 on the boundary itself);
    otherwise the independent variable is v.
    """

    v: np.ndarray
    W: np.ndarray
    s: np.ndarray
    integral: np.ndarray
    dense: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    boundary: BoundaryZone | None = None
    q: np.ndarray | None = None

    def W_at(self, v):
        """W on the leg from the dense output; NaN for slopes off the leg,
        those past a boundary leg's edge (q clamps them to 0) included."""
        import numpy as np

        b = self.boundary
        x, t = (self.v, v) if b is None else (self.q, b.q(v))
        t = np.asarray(t, dtype=float)
        W = np.exp(self.dense(t.ravel())[0].reshape(t.shape))
        on_leg = (t >= min(x[0], x[-1])) & (t <= max(x[0], x[-1]))
        if b is not None:
            on_leg &= b.side * (b.v_edge - np.asarray(v)) >= 0.0
        return np.where(on_leg, W, np.nan)

    def trajectory(self) -> Trajectory:
        """The leg as a Trajectory in ascending s.

        A boundary leg ends on the flux boundary, which becomes that end's
        termination kind and profile edge; the other end is a GRAPH_END.
        Where s changes by less than its rounding between samples, next to
        an edge reached in q**m with m large, the dense output can step s
        back by an ulp or leave it unchanged; s is the running maximum, and
        an interior sample whose s ties the next one or the first is
        dropped, so s strictly rises, as a Trajectory's does.
        """
        import numpy as np

        s, w, v, ii = self.s, self.W, self.v, self.integral
        lo_kind = hi_kind = GRAPH_END
        if self.boundary is not None:
            hi_kind = FLUX_BOUNDARY_HIGH if self.boundary.side > 0 else FLUX_BOUNDARY_LOW
        if s[-1] < s[0]:
            s, w, v, ii = s[::-1], w[::-1].copy(), v[::-1].copy(), ii[::-1].copy()
            lo_kind, hi_kind = hi_kind, lo_kind
        s = np.maximum.accumulate(s)
        keep = np.ones(len(s), dtype=bool)
        keep[1:-1] = (s[0] < s[1:-1]) & (s[1:-1] < s[2:])
        if not keep.all():
            s, w, v, ii = s[keep], w[keep], v[keep], ii[keep]
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


_DENOM_EPS = 1e-10  # the graph field's floor, relative


def _graph_field(p: ModelParams, leg, dsign: float, v_a: float, v_b: float):
    """(field, floor): field(t, ln W) gives the slopes of (ln W, s, I) on
    the variable t, k*drive, k*dv/dt and v*k*dv/dt with k = gamma/(lam -
    gamma*v^2 - W), where leg(t) = (v, dv/dt, drive = (g(a*v - sigma) - v)
    * dv/dt).  A stage whose denominator, signed by dsign, is at most floor
    = 1e-10 * max(1, lam, gamma*max(v_a^2, v_b^2)) raises DomainError."""
    gamma, lam = p.gamma, p.lam
    floor = _DENOM_EPS * max(1.0, lam, gamma * max(v_a * v_a, v_b * v_b))

    def field(t, x):
        v, dv, drive = leg(t)
        den = lam - gamma * v * v - math.exp(x)
        if den * dsign <= floor:
            raise DomainError(f"lam - gamma*v^2 - W reached the floor at {t!r}")
        k = gamma / den
        ds = k * dv
        return k * drive, ds, v * ds

    return field, floor


# A leg stalls where lam - W - gamma*v^2 vanishes: at a pinch its stages
# reach the floor; near a fold it falls like the square root of the distance,
# so the step reaches the float spacing while it is still of order sqrt(eps),
# far above the floor and far below any value a leg passes through.  So a
# stall with its last signed denominator under floor / sqrt(eps) is either.
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

    Monotone-v legs only.  When v_target is a flux-boundary edge, the
    whole leg runs in the regularized variable q, reaching the boundary
    exactly at q = 0.  The solver carries ln W, s, from s_start at the
    anchor, and I = integral of v ds: ds/dv = gamma/(lam - W - gamma*v^2)
    and dI/dv = v ds/dv.  Raises DomainError for a v_target outside the
    slope domain (the infinite edges of a linear limiter's included).  A
    leg at the denominator's floor at its anchor raises DenominatorVanished,
    and so does one that stalls (a fold or a pinch) with its last signed
    denominator under _FOLD_FACTOR times the floor; any other stall raises
    Inconclusive.  Samples and `dense` are DP54's continuous extension, by
    Horner's rule on coefficients with h folded in once per leg; an
    n_samples that is not an int of at least 2 raises ValueError first.
    """
    ctr = controls or Controls()
    # the leg marches on Python floats: numpy scalars would slow every stage
    # of every step
    v_anchor, W_anchor, v_target, s_start = map(float, (v_anchor, W_anchor, v_target, s_start))
    if v_target == v_anchor:
        raise ValueError("v_target must differ from v_anchor")
    if not W_anchor > 0.0:
        raise ValueError("W_anchor must be positive")
    if isinstance(n_samples, bool) or not isinstance(n_samples, int) or n_samples < 2:
        raise ValueError(f"n_samples must be an integer of at least 2, got {n_samples!r}")
    lim = p.limiter
    g = make_g(lim)
    a, sigma, gamma, lam = p.a, p.sigma, p.gamma, p.lam
    lo, hi = p.slope_domain
    if not lo < v_anchor < hi:
        raise DomainError(f"v_anchor = {v_anchor!r} outside the slope domain")

    edge = lim.saturated and v_target in (lo, hi)
    boundary = BoundaryZone.of(p, 1 if v_target == hi else -1) if edge else None
    if boundary is None and not lo < v_target < hi:
        raise DomainError(f"v_target = {v_target!r} outside the slope domain")

    # leg(t) gives v, dv/dt and drive = (g(a*v - sigma) - v) * dv/dt at the
    # independent variable t: v itself, or q on a boundary leg
    if boundary is None:
        t0, t1 = v_anchor, v_target

        def leg(t):
            return t, 1.0, g(a * t - sigma) - t

    else:
        t0, t1 = float(boundary.q(v_anchor)), 0.0
        leg = boundary.leg(p)

    # the floor is signed with the anchor's denominator: no stage passes a pinch
    dsign = math.copysign(1.0, lam - gamma * v_anchor * v_anchor - W_anchor)
    field, floor = _graph_field(p, leg, dsign, v_anchor, v_target)
    kernel = None if boundary is None else _boundary_kernel(p, boundary, dsign, floor)
    rows = []  # per accepted step: t, signed h, y and the 7 stage slopes, flat
    t, y = t0, (math.log(W_anchor), s_start, 0.0)
    try:
        for t_old, y_old, _, h, t, y, ks in _leg_march(field, t, y, t1, ctr, kernel):
            k1, k2, k3, k4, k5, k6, k7 = ks
            rows.append((t_old, h, *y_old, *k1, *k2, *k3, *k4, *k5, *k6, *k7))
    except DomainError as exc:  # `_march` rejects a step's, so this is the anchor's
        raise DenominatorVanished(
            f"lam - W - gamma*v^2 is at the floor at the anchor v = {v_anchor!r}"
        ) from exc
    except StepSizeUnderflow as exc:
        v = leg(t)[0]
        den_end = (lam - gamma * v * v - math.exp(y[0])) * dsign
        if den_end < _FOLD_FACTOR * floor:
            raise DenominatorVanished(
                f"graph integration stalled at a fold or pinch: signed denominator "
                f"{den_end!r} at independent variable {t!r}"
            ) from exc
        raise Inconclusive(f"graph integration failed: {exc}") from exc

    # the continuous extension maps an array of t to the states there, shape
    # (3,) + t.shape, extrapolating from the nearest step off the leg; it is
    # vectorised over the sample grid, so graph legs load numpy.  coef holds
    # per step y and C_j = h * (stage slopes weighed by column j-1 of _P), as
    # rows (power, component, step): y(t + theta*h) = y + theta*(C1 + ...).
    import numpy as np

    table = np.array(rows).T  # (column, step)
    t_old, hs = table[:2]
    coef = (np.array(_P).T @ table[5:].reshape(7, -1)).reshape(4, 3, -1) * hs
    coef = np.concatenate((table[None, 2:5], coef))
    sgn = math.copysign(1.0, t1 - t0)

    def dense(t):
        t = np.asarray(t, dtype=float)
        x = t.ravel()
        i = np.maximum(np.searchsorted(sgn * t_old, sgn * x, side="right") - 1, 0)
        theta = (x - t_old[i]) / hs[i]
        y, c1, c2, c3, c4 = coef.take(i, axis=2)
        y = y + theta * (c1 + theta * (c2 + theta * (c3 + theta * c4)))
        return y.reshape((3,) + t.shape)

    ts = np.linspace(t0, t1, n_samples)
    lw, s, ii = dense(ts)
    W = np.exp(lw)
    W[0] = W_anchor  # exp(ln W) need not give W back
    return GraphSolution(
        v=ts if boundary is None else boundary.v(ts),
        W=W,
        s=s,
        integral=ii,
        dense=dense,
        boundary=boundary,
        q=None if boundary is None else ts,
    )

