"""Test oracles: quadrature for the t_min-marginalized model curves, and
response training on the event record."""

import numpy as np
from scipy import integrate

# e^(-2*40) ~ 1e-35 at the reach bounds the truncation error far below the
# 1e-9 target
from flavourasym.models import _UMAX_LIFETIMES
from flavourasym.pipeline import RESPONSE_STREAM
from flavourasym.toygen import GenModel, make_signal_events, stream_rng

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


def histogram_responses(dt_true, dt_rec, cls, binning):
    """[(m, truth_totals) for OF, SF] binned per class with np.histogram for
    the totals and np.histogram2d for the migrations of the events whose
    true dt lies in [first edge, last edge)."""
    edges = binning.array
    out = []
    for code in (0, 1):
        sel = cls == code
        t, r = dt_true[sel], dt_rec[sel]
        totals, _ = np.histogram(t, bins=edges)
        in_t = (t >= edges[0]) & (t < edges[-1])
        m, _, _ = np.histogram2d(r[in_t], t[in_t], bins=(edges, edges))
        out.append((m, totals.astype(float)))
    return out


def record_responses(cfg, detector):
    """Response training on the event record: a full `make_signal_events`
    QM sample from the response stream, binned by `histogram_responses`
    on its true class."""
    mc = make_signal_events(GenModel.QM, cfg.params, cfg.n_response_mc,
                            detector, stream_rng(cfg.seed, RESPONSE_STREAM))
    return histogram_responses(mc["dt_true_ps"], mc["dt_rec_ps"],
                               mc["cls_true"], cfg.binning)
