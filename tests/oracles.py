"""Quadrature oracle for the t_min-marginalized model curves."""

import numpy as np
from scipy import integrate

# e^(-2*40) ~ 1e-35 at the reach bounds the truncation error far below the
# 1e-9 target
from flavourasym.models import _UMAX_LIFETIMES

_QUAD_ABS_TOL = 1e-10


def marginalize(joint, dt: float, p) -> float:
    """Average joint(t_min, dt) over t_min with the pair-decay weight.

    At fixed dt the surviving-pair density is proportional to
    exp(-2 t_min / tau), so the marginal is
    int joint(u, dt) exp(-2u/tau) du / int exp(-2u/tau) du.
    The error check holds for smooth integrands only: across a kink, such
    as those of the band edges, the error estimate can miss by orders of
    magnitude.
    """
    if dt < 0:
        raise ValueError("dt must be non-negative")
    umax = _UMAX_LIFETIMES * p.tau
    num, err = integrate.quad(
        lambda u: joint(u, dt) * np.exp(-2.0 * u / p.tau),
        0.0, umax, epsabs=_QUAD_ABS_TOL, epsrel=1e-11, limit=400,
    )
    den = p.tau / 2.0 * (1.0 - np.exp(-2.0 * umax / p.tau))
    if err / den > 1e-9:
        raise ArithmeticError(
            f"quadrature did not converge: estimated error {err / den:.2e}"
        )
    return num / den
