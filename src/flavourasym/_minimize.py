"""The two routines behind the fits, without scipy: bounded scalar
minimization and Brent's root finder.

Each is a step-for-step port of what scipy 1.17.1 runs, doing the same IEEE
operations in the same order, so every iterate and every result is the same
double:

- `minimize_bounded`: `scipy.optimize._optimize._minimize_scalar_bounded`
  (fminbound, what `minimize_scalar(method="bounded")` calls);
- `brentq`: the C `brentq` of scipy's `optimize/Zeros/brentq.c` behind
  `scipy.optimize.brentq`, with its defaults (xtol 2e-12, rtol 4 eps,
  100 iterations), its sign-error `ValueError` and the `ValueError` its
  Python wrapper raises on a NaN function value.

The scalar arithmetic keeps scipy's numpy calls (`np.abs`, `np.sign`, ...),
so the objective sees the same argument types as under scipy. The tests
compare every routine with the installed scipy using `==`.
"""

from __future__ import annotations

import math

import numpy as np

# scipy's defaults: function evaluations of the bounded minimization, and
# brentq's relative tolerance and iterations
_BOUNDED_MAXFUN = 500
_RTOL = 4 * float(np.finfo(float).eps)
_BRENTQ_MAXITER = 100


def minimize_bounded(fun, bounds, xatol) -> tuple:
    """(x, fun(x)), as floats, at the minimum of a scalar function on
    [a, b]: golden section with parabolic steps, ending when x is known to
    within about xatol or after 500 evaluations."""
    a, b = bounds
    sqrt_eps = np.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - np.sqrt(5.0))
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = fun(x)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while np.abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        if np.abs(e) > tol1:        # try a parabolic step
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = np.abs(q)
            r = e
            e = rat
            if ((np.abs(p) < np.abs(0.5*q*r)) and (p > q*(a - xf))
                    and (p < q * (b - xf))):
                rat = (p + 0.0) / q
                x = xf + rat
                if ((x - a) < tol2) or ((b - x) < tol2):
                    si = np.sign(xm - xf) + ((xm - xf) == 0)
                    rat = tol1 * si
            else:
                golden = True
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean*e

        si = np.sign(rat) + (rat == 0)
        x = xf + si * np.maximum(np.abs(rat), tol1)
        fu = fun(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= _BOUNDED_MAXFUN:
            break
    return float(xf), float(fx)


def brentq(f, xa, xb, xtol=2e-12) -> float:
    """A root of f in [xa, xb], where f changes sign, to within
    xtol + 4 eps |root|. Raises ValueError when f(xa) and f(xb) have the
    same sign or f is NaN, RuntimeError when 100 iterations do not
    converge."""
    def call(x):
        fx = f(x)
        if np.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; "
                             "solver cannot continue.")
        return float(fx)

    def neg(v):
        return math.copysign(1.0, v) < 0      # C signbit

    xpre, xcur, xtol = float(xa), float(xb), float(xtol)    # C doubles
    xblk = fblk = spre = scur = 0.0
    fpre = call(xpre)
    fcur = call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if neg(fpre) == neg(fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_BRENTQ_MAXITER):
        if fpre != 0 and fcur != 0 and neg(fpre) != neg(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + _RTOL*abs(xcur))/2  # the tolerance is 2*delta
        sbis = (xblk - xcur)/2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:                # interpolate
                stry = -fcur*(xcur - xpre)/(fcur - fpre)
            else:                           # extrapolate
                dpre = (fpre - fcur)/(xpre - xcur)
                dblk = (fblk - fcur)/(xblk - xcur)
                stry = (-fcur*(fblk*dblk - fpre*dpre)
                        / (dblk*dpre*(fblk - fpre)))
            bound = abs(spre) if abs(spre) < 3*abs(sbis) - delta else (
                3*abs(sbis) - delta)
            if 2*abs(stry) < bound:         # good short step
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
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {_BRENTQ_MAXITER} "
                       f"iterations, value is {xcur:f}")

