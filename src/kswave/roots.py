"""Bracketed scalar root finding: Brent's method.

Brent, *Algorithms for Minimization without Derivatives* (1973), ch. 4.
`brentq` follows SciPy's `brentq.c` step for step (the same stopping test,
the same interpolate/extrapolate/bisect updates in the same order, the same
iteration cap), so it returns the same root as SciPy's `optimize.brentq`,
bit for bit, without importing SciPy.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

from .errors import RootNotFound

# SciPy's default (and smallest admissible) relative tolerance, and its
# default iteration cap.
_RTOL = 4.0 * sys.float_info.epsilon
_MAXITER = 100


def _value(f: Callable[[float], float], x: float) -> float:
    fx = float(f(x))
    if math.isnan(fx):
        raise RootNotFound(f"the function value at x={x!r} is NaN")
    return fx


def brentq(f: Callable[[float], float], a: float, b: float, xtol: float) -> float:
    """A root of f in [a, b], where f(a) and f(b) differ in sign.

    Stops when the bracket half-width is under (xtol + _RTOL*|x|)/2.  A
    bracket without a sign change is a caller error (ValueError); a NaN
    value of f or no convergence in _MAXITER iterations raises RootNotFound.
    """
    xpre, xcur = float(a), float(b)
    fpre, fcur = _value(f, xpre), _value(f, xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _value(f, xcur)
    raise RootNotFound(f"no convergence after {_MAXITER} iterations, value is {xcur!r}")
