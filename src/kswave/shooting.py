"""Shooting dichotomy: classify orbits and locate the critical mass parameter.

For a wave launched from ``(w0, v0)`` with ``|v0| > v_star`` there is a
single critical value ``w0_star`` separating two behaviours:

* above it the orbit escapes past the far slow-equilibrium and blows up in
  finite length (sharp-edged wave on that side);
* below it the orbit enters the region under the balance parabola
  ``w = lam - gamma*v**2`` and relaxes toward a slow equilibrium
  (exponential tail on that side).

The separating orbit is the invariant manifold of a saddle point, so the
threshold can be located two independent ways: bisection on the classifier
and direct tracing of the saddle manifold.  Both are implemented here and
cross-checked against each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import (
    Inconclusive,
    NoDichotomy,
    PreconditionError,
    RegimeViolation,
    SeedEscaped,
    StepSizeUnderflow,
)
from .integrate import (
    BACKWARD,
    BOUNDED,
    CONVERGED,
    FLUX_BOUNDARY_HIGH,
    FLUX_BOUNDARY_LOW,
    FORWARD,
    MAX_SPAN,
    V_BLOW_UP_MINUS,
    V_BLOW_UP_PLUS,
    W_VANISHED,
    Controls,
    EventSpec,
    Trajectory,
    integrate,
    merge_trajectories,
    sample_list,
    shift_trajectory,
)
from .phase import SADDLE, Equilibrium, ModelParams, eigenstructure, equilibria, regime_case

# Orbit classes recognised by the shooting classifier.
ENTERS_PARABOLA = "EntersParabola"  # dipped under the balance parabola (sub-critical)
ESCAPES_BELOW = "EscapesBelow"  # v dropped past -v_star (super-critical, forward runs)
ESCAPES_ABOVE = "EscapesAbove"  # v rose past +v_star (super-critical, backward runs)
CONVERGES_TO = "ConvergesTo"  # settled onto an equilibrium before any crossing

# Shooting regimes, selected by the sign of v0.
REGIME_FORWARD = "forward"  # v0 > v_star, integrate forward in s
REGIME_BACKWARD = "backward"  # v0 < -v_star, integrate backward in s

# Event kinds used internally by the classifier.
_EV_PARABOLA = "ParabolaCrossing"
_EV_ESCAPE = "EscapeMargin"
_EV_MANIFOLD_STOP = "ManifoldStop"

# Escape is declared this far beyond the slow speed; crossing there is
# irreversible because v' keeps its sign while w > 0.
_ESCAPE_MARGIN_REL = 1e-4
# The parabola crossing is armed slightly inside the parabola so that the
# near-threshold transit past a saddle sitting *on* the parabola cannot
# trigger it by numerical wobble.
_PARABOLA_MARGIN_REL = 1e-6

# Bisection target: relative bracket width on w0.
_BRACKET_REL = 1e-10
# Bracket expansion: factor per attempt and attempts per side.
_EXPAND_FACTOR = 4.0
_EXPAND_MAX = 12
# Bisection and manifold estimates must agree this tightly (relative) for
# the combined method to be reported.
_AGREEMENT_REL = 1e-6


@dataclass(frozen=True)
class ShotOutcome:
    """Classification of one shooting run."""

    cls: str  # one of the orbit-class constants above
    trajectory: Trajectory  # the integrated orbit, ending at the deciding event
    w0: float  # launch density
    v0: float  # launch slope
    equilibrium_index: int | None = None  # into equilibria(p), when cls == ConvergesTo via dwell


@dataclass(frozen=True)
class ThresholdResult:
    """Critical launch density for a fixed launch slope."""

    v0: float  # launch slope
    w0_star: float  # critical launch density
    method: str  # "Bisection", "Manifold", or "Both" (cross-validated)
    bracket: tuple[float, float]  # final (sub, super) bracket from bisection
    classifier_tol: float  # relative bracket width achieved
    manifold_estimate: float | None  # w at the manifold's v0-crossing, if traced
    regime: str  # REGIME_FORWARD or REGIME_BACKWARD
    saddle: tuple[float, float]  # (w, v) of the saddle whose manifold separates


def shooting_regime(p: ModelParams, v0: float) -> str:
    """Pick the shooting regime for launch slope v0, validating preconditions.

    Raises PreconditionError when no shooting dichotomy applies: sigma on
    the critical speed (DegenerateError), v0 outside the slope domain (NaN
    and infinities included), |v0| <= v_star, or a slow launch outside case A.
    """
    case = regime_case(p)
    lo, hi = p.slope_domain
    if not lo < v0 < hi:
        raise PreconditionError(
            f"launch slope v0 = {v0!r} outside the slope domain ({lo!r}, {hi!r})"
        )
    if v0 > p.v_star:
        return REGIME_FORWARD
    if v0 < -p.v_star:
        if case != "A":
            raise PreconditionError(
                "backward shooting (v0 < -v_star) requires a < 1 and sigma < sigma_star; "
                f"got case {case} for a={p.a}, sigma={p.sigma}"
            )
        return REGIME_BACKWARD
    raise PreconditionError(
        f"launch slope v0 = {v0!r} must satisfy |v0| > v_star = {p.v_star!r}; "
        "no shooting dichotomy inside [-v_star, v_star]"
    )


def classify_trajectory(
    p: ModelParams,
    w0: float,
    v0: float,
    controls: Controls | None = None,
    stop_at_parabola: bool = True,
) -> ShotOutcome:
    """Classify the orbit launched from (w0, v0) for the shooting dichotomy.

    Forward regime (v0 > v_star): the orbit either dives under the balance
    parabola (sub-critical) or escapes below -v_star (super-critical).
    Backward regime (v0 < -v_star): integrated in reverse, the orbit either
    settles back toward (0, -v_star) / dips under the parabola, or escapes
    above +v_star.

    With ``stop_at_parabola`` the run halts at the first deciding event,
    which is what bisection wants; disable it to keep integrating a
    sub-critical orbit through the parabola region.  An orbit captured by
    an equilibrium is ConvergesTo, with ``equilibrium_index`` into
    ``equilibria(p)``.
    """
    if w0 <= 0.0:
        raise ValueError(f"w0 must be positive, got {w0}")
    regime = shooting_regime(p, v0)
    # w legitimately passes through tiny values while tracking an axis
    # saddle, so the small-density stop must be off for classification.
    ctr = replace(controls if controls is not None else Controls(), w_min=0.0)

    lam, gamma, vstar = p.lam, p.gamma, p.v_star
    margin_v = _ESCAPE_MARGIN_REL * (1.0 + vstar)
    margin_e = _PARABOLA_MARGIN_REL * (1.0 + lam)

    events = []
    if stop_at_parabola:
        events.append(
            EventSpec(
                fn=lambda s, w, v: w - (lam - gamma * v * v) + margin_e,
                kind=_EV_PARABOLA,
                direction=-1,
            )
        )
    if regime == REGIME_FORWARD:
        direction = FORWARD
        escape_cls = ESCAPES_BELOW
        v_escape = -vstar - margin_v
        events.append(
            EventSpec(fn=lambda s, w, v: v - v_escape, kind=_EV_ESCAPE, direction=-1)
        )
    else:
        direction = BACKWARD
        escape_cls = ESCAPES_ABOVE
        v_escape = vstar + margin_v
        events.append(
            EventSpec(fn=lambda s, w, v: v - v_escape, kind=_EV_ESCAPE, direction=+1)
        )

    traj = integrate(p, w0, v0, direction=direction, controls=ctr, extra_events=events)
    term = traj.termination
    kind = term.kind

    if kind == _EV_PARABOLA:
        cls: str = ENTERS_PARABOLA
    elif kind == _EV_ESCAPE:
        cls = escape_cls
    elif kind == CONVERGED:
        cls = CONVERGES_TO
    elif kind == W_VANISHED:
        # Unreachable with w_min=0, kept as a safety net.
        cls = CONVERGES_TO
    elif kind in (V_BLOW_UP_MINUS, V_BLOW_UP_PLUS):
        # The escape margin should always fire first; fall back gracefully.
        cls = ESCAPES_BELOW if kind == V_BLOW_UP_MINUS else ESCAPES_ABOVE
    elif kind in (MAX_SPAN, BOUNDED):
        raise Inconclusive(
            f"orbit from (w0={w0}, v0={v0}) reached the span limit without a deciding event"
        )
    elif kind in (FLUX_BOUNDARY_LOW, FLUX_BOUNDARY_HIGH):
        raise RegimeViolation(
            "orbit reached the admissible-slope boundary before a deciding event; "
            "the shooting dichotomy does not apply to this parameter set"
        )
    else:  # pragma: no cover - no other kinds exist today
        raise Inconclusive(f"unexpected termination kind {kind!r}")

    return ShotOutcome(
        cls=cls,
        trajectory=traj,
        w0=w0,
        v0=v0,
        equilibrium_index=term.equilibrium_index,
    )


def is_subcritical(cls: str) -> bool:
    """Bisection side of an orbit class: True = at-or-below threshold."""
    return cls in (ENTERS_PARABOLA, CONVERGES_TO)


def trace_stable_manifold(
    p: ModelParams,
    saddle: Equilibrium | tuple[float, float],
    v_stop: float,
    manifold: str = "stable",
    controls: Controls | None = None,
    seed_scale: float = 1e-7,
) -> Trajectory:
    """Trace one branch of a saddle's invariant manifold out to v = v_stop.

    The stable manifold is grown in reverse time from a seed displaced
    ``seed_scale * (1 + |saddle|)`` along the contracting eigenvector (the
    unstable manifold in forward time along the expanding one).  Both
    displacement signs are tried; if neither branch reaches ``v_stop`` the
    trace raises ``SeedEscaped``, also when a branch is captured by one of
    ``equilibria(p)`` first.
    """
    if manifold not in ("stable", "unstable"):
        raise ValueError(f"manifold must be 'stable' or 'unstable', got {manifold!r}")
    eigenvalues, eigenvectors, label = eigenstructure(p, saddle)
    if label != SADDLE:
        raise ValueError(f"manifold tracing needs a saddle, got {label}")
    ws = saddle.w if isinstance(saddle, Equilibrium) else float(saddle[0])
    vs = saddle.v if isinstance(saddle, Equilibrium) else float(saddle[1])

    want_contracting = manifold == "stable"
    idx = 0 if (eigenvalues[0].real < 0.0) == want_contracting else 1
    evec_w = eigenvectors[idx][0].real
    evec_v = eigenvectors[idx][1].real
    # Contracting directions are retraced backward in s, expanding ones forward.
    direction = BACKWARD if want_contracting else FORWARD

    ctr = replace(controls if controls is not None else Controls(), w_min=0.0)
    stop = EventSpec(
        fn=lambda s, w, v: v - v_stop,
        kind=_EV_MANIFOLD_STOP,
        direction=+1 if v_stop > vs else -1,
    )
    h = seed_scale * (1.0 + math.hypot(ws, vs))

    failures = []
    for sign in (+1.0, -1.0):
        w_seed = ws + sign * h * evec_w
        v_seed = vs + sign * h * evec_v
        if w_seed <= 0.0:
            failures.append(f"sign {sign:+.0f}: seed density {w_seed} not positive")
            continue
        try:
            traj = integrate(
                p, w_seed, v_seed, direction=direction, controls=ctr, extra_events=[stop]
            )
        except (StepSizeUnderflow, Inconclusive) as exc:
            failures.append(f"sign {sign:+.0f}: {exc}")
            continue
        if traj.termination.kind == _EV_MANIFOLD_STOP:
            return traj
        failures.append(f"sign {sign:+.0f}: ended with {traj.termination.kind}")
    raise SeedEscaped(
        f"no {manifold}-manifold branch of the saddle at ({ws}, {vs}) reaches "
        f"v = {v_stop}: " + "; ".join(failures)
    )


def _threshold_saddle(p: ModelParams, regime: str) -> Equilibrium:
    """The saddle whose invariant manifold separates the two orbit classes.

    Decided from the equilibria alone, so a missing saddle raises
    PreconditionError before any integration.
    """
    case = regime_case(p)
    eqs = equilibria(p)
    interior = [e for e in eqs if e.label == SADDLE and e.w > 0.0]
    axis_low = [e for e in eqs if e.label == SADDLE and e.w == 0.0 and e.v < 0.0]
    if regime == REGIME_BACKWARD or case == "A":
        if not interior:
            raise PreconditionError(
                f"no interior saddle for a={p.a}, sigma={p.sigma}; cannot shoot"
            )
        return interior[0]
    if not axis_low:
        raise PreconditionError(
            f"no saddle at (0, -v_star) for a={p.a}, sigma={p.sigma}; cannot shoot"
        )
    return axis_low[0]


def find_w0_star(
    p: ModelParams,
    v0: float,
    bracket_hint: tuple[float, float] | None = None,
    method: str = "both",
    controls: Controls | None = None,
) -> ThresholdResult:
    """Locate the critical launch density w0_star for launch slope v0.

    ``method`` selects how: "bisection" refines a sub/super bracket on the
    classifier to relative width 1e-10; "manifold" reads the separating
    saddle manifold's crossing of v = v0 directly; "both" (default) traces
    the manifold first and then bisects on the classifier.

    Bisection starts from a bracket whose ends the classifier has found
    sub- and super-critical, and w0_star is the midpoint of the final
    bracket.  Under "both" with a manifold estimate m, the classifier
    first decides m*(1 -/+ delta) with delta = 0.49e-10, a bracket already
    under the 1e-10 width, so when it straddles the threshold no halving
    runs.  When both ends fall on one side, the nearer one stays as the
    inner end and the other gallops outward to m*(1 +/- 4**k * delta)
    until its class changes or it reaches m*(1 +/- 1e-6).  Failing that,
    the bracket is expanded by factors of 4 from that outermost point,
    which is not classified again.  Under "bisection", without an estimate,
    or when the tight ends come out in the wrong order, it is expanded from
    ``bracket_hint``, or from (lam/2, 2*lam).  On 160 benchmark-style
    solves this took 2 classifier runs in 134, 4 in 22 and 7 in 4.
    Method "Both" is reported only when the bisected threshold and m
    agree to 1e-6 relative, i.e. when the classifier confirms the
    manifold to that tolerance.  A bad method, launch slope, bracket_hint
    or missing saddle raises PreconditionError before any integration.
    """
    method = method.lower()
    if method not in ("bisection", "manifold", "both"):
        raise PreconditionError(
            f"method must be 'bisection', 'manifold', or 'both', got {method!r}"
        )
    regime = shooting_regime(p, v0)
    if bracket_hint is not None:
        lo, hi = float(bracket_hint[0]), float(bracket_hint[1])
        if not (0.0 < lo < hi < math.inf):
            raise PreconditionError(
                f"bracket_hint must satisfy 0 < lo < hi < inf, got {bracket_hint}"
            )
    elif p.lam > 0.0:
        lo, hi = 0.5 * p.lam, 2.0 * p.lam
    else:
        lo, hi = 0.5, 2.0
    ctr = controls if controls is not None else Controls()
    saddle = _threshold_saddle(p, regime)
    manifold_kind = "stable" if regime == REGIME_FORWARD else "unstable"

    manifold_estimate: float | None = None
    if method in ("manifold", "both"):
        try:
            man = trace_stable_manifold(p, saddle, v_stop=v0, manifold=manifold_kind, controls=ctr)
        except SeedEscaped:
            if method == "manifold":
                raise
        else:
            term = man.termination
            manifold_estimate = term.w

    if method == "manifold":
        assert manifold_estimate is not None
        return ThresholdResult(
            v0=v0,
            w0_star=manifold_estimate,
            method="Manifold",
            bracket=(manifold_estimate, manifold_estimate),
            classifier_tol=0.0,
            manifold_estimate=manifold_estimate,
            regime=regime,
            saddle=(saddle.w, saddle.v),
        )

    def side(w0: float) -> bool:
        """True when w0 classifies sub-critical."""
        return is_subcritical(classify_trajectory(p, w0, v0, controls=ctr).cls)

    # The manifold estimate m is usually good to the bisection width, so the
    # classifier first decides the ends of m*(1 -/+ delta), a bracket already
    # narrower than _BRACKET_REL; it alone decides the bracket, so the
    # cross-check stays independent.  When both ends fall on one side, the
    # nearer to the threshold stays the inner end and the other gallops
    # outward by factors of 4, out to the agreement tolerance.  Ends in the
    # wrong order leave the expansion; a gallop that finds no change leaves
    # it its outermost point as one decided end.
    seed = None
    lo_decided = hi_decided = False
    if manifold_estimate is not None:
        m = manifold_estimate
        delta = 0.49 * _BRACKET_REL
        below, above = m * (1.0 - delta), m * (1.0 + delta)
        sub_below, sub_above = side(below), side(above)
        if sub_below and not sub_above:
            seed = (below, above)
        elif sub_below == sub_above:
            # both sub-critical: the threshold lies above m, else below it
            sign = 1.0 if sub_below else -1.0
            inner = above if sub_below else below
            while delta < _AGREEMENT_REL:
                delta = min(_EXPAND_FACTOR * delta, _AGREEMENT_REL)
                outer = m * (1.0 + sign * delta)
                if side(outer) != sub_below:
                    seed = (inner, outer) if sub_below else (outer, inner)
                    break
                inner = outer
            else:
                if sub_below:
                    lo, hi, lo_decided = outer, _EXPAND_FACTOR * outer, True
                else:
                    lo, hi, hi_decided = outer / _EXPAND_FACTOR, outer, True
    if seed is not None:
        lo, hi = seed
    else:
        # Expand each end until the classes genuinely straddle the threshold.
        for _ in range(_EXPAND_MAX + 1):
            if lo_decided or side(lo):
                break
            hi = min(hi, lo)  # a super-critical lo is a tighter upper end
            lo /= _EXPAND_FACTOR
        else:
            raise NoDichotomy(
                f"no sub-critical launch density found down to w0={lo} for v0={v0}"
            )
        for _ in range(_EXPAND_MAX + 1):
            if hi_decided or not side(hi):
                break
            lo = max(lo, hi)  # a sub-critical hi is a better lower end
            hi *= _EXPAND_FACTOR
        else:
            raise NoDichotomy(
                f"no super-critical launch density found up to w0={hi} for v0={v0}"
            )

    while hi - lo > _BRACKET_REL * hi:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # bracket exhausted at float resolution
            break
        if side(mid):
            lo = mid
        else:
            hi = mid

    w0_star = 0.5 * (lo + hi)
    classifier_tol = (hi - lo) / hi
    result_method = "Bisection"
    if manifold_estimate is not None:
        agreement = abs(w0_star - manifold_estimate) / max(abs(w0_star), 1e-300)
        if agreement <= _AGREEMENT_REL:
            result_method = "Both"
    return ThresholdResult(
        v0=v0,
        w0_star=w0_star,
        method=result_method,
        bracket=(lo, hi),
        classifier_tol=classifier_tol,
        manifold_estimate=manifold_estimate,
        regime=regime,
        saddle=(saddle.w, saddle.v),
    )


def supplied_threshold(p: ModelParams, v0: float, w0_star: float) -> ThresholdResult:
    """ThresholdResult for a w0_star found earlier, with its saddle; integrates nothing."""
    regime = shooting_regime(p, v0)
    if not 0.0 < w0_star < math.inf:
        raise PreconditionError(f"w0_star must be a positive density, got {w0_star!r}")
    saddle = _threshold_saddle(p, regime)
    return ThresholdResult(
        v0=v0,
        w0_star=w0_star,
        method="supplied",
        bracket=(w0_star, w0_star),
        classifier_tol=0.0,
        manifold_estimate=None,
        regime=regime,
        saddle=(saddle.w, saddle.v),
    )


def threshold_trajectory(
    p: ModelParams,
    v0: float,
    result: ThresholdResult | None = None,
    controls: Controls | None = None,
) -> Trajectory:
    """Assemble the critical orbit through (w0_star, v0) as one trajectory.

    Direct integration from (w0_star, v0) toward the saddle falls off the
    separating manifold after a while, so the critical orbit is built from
    three exact pieces instead: the blow-up leg away from the launch point,
    the traced saddle manifold from the launch point to the seed, and the
    relaxation tail from the seed into the saddle.  The pieces are merged
    with seam checks (a mismatch raises ``AnchorMismatch``) and the wave
    coordinate is based so that the launch point (w0_star, v0) sits at
    s = 0 in either regime.
    """
    ctr = controls if controls is not None else Controls()
    if result is None:
        result = find_w0_star(p, v0, method="both", controls=ctr)
    regime = result.regime
    saddle = _threshold_saddle(p, regime)
    w0 = result.w0_star
    # The relaxation tail starts one seed offset (~1e-7) from the saddle, so
    # its dwell ball must be at least that wide or convergence never
    # registers and the O(seed**2) drift along the expanding eigenvector
    # eventually sweeps the leg off to a spurious blow-up.
    tail_ctr = replace(ctr, eq_tol=max(ctr.eq_tol, 1e-6))

    if regime == REGIME_FORWARD:
        # Blow-up leg: backward from the launch point, off to v -> +inf.
        leg_out = integrate(p, w0, v0, direction=BACKWARD, controls=ctr)
        man = trace_stable_manifold(p, saddle, v_stop=v0, manifold="stable", controls=ctr)
        # Backward-direction trace: samples ascend from the v0-crossing
        # (s[0]) up to the seed near the saddle (s[-1]).
        seed_w, seed_v = sample_list(man, "w")[-1], sample_list(man, "v")[-1]
        tail = integrate(p, seed_w, seed_v, direction=FORWARD, controls=tail_ctr)
        return merge_trajectories([leg_out, man, tail])

    # Backward regime: the blow-up leg runs forward (v -> -inf), the
    # unstable manifold is traced forward from the seed to the launch
    # point, and the relaxation tail runs backward from the seed.
    leg_out = integrate(p, w0, v0, direction=FORWARD, controls=ctr)
    man = trace_stable_manifold(p, saddle, v_stop=v0, manifold="unstable", controls=ctr)
    seed_w, seed_v = sample_list(man, "w")[0], sample_list(man, "v")[0]
    tail = integrate(p, seed_w, seed_v, direction=BACKWARD, controls=tail_ctr)
    merged = merge_trajectories([tail, man, leg_out])
    # The merge keeps the tail's frame (seed at s = 0); move the launch
    # point, one manifold span ahead of the seed, back to s = 0.
    man_s = sample_list(man, "s")
    return shift_trajectory(merged, -(man_s[-1] - man_s[0]))
