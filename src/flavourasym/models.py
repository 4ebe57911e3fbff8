"""Flavour-asymmetry predictions for entangled and local-realistic B-pair models.

All times are in picoseconds; asymmetries are dimensionless and lie in
[-1, 1]. Functions accept scalars or numpy arrays and are pure.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModelParams",
    "asym_qm",
    "asym_sd_marginal",
    "ps_band_edges",
    "MarginalGrid",
    "curve_rows",
]

# Reach of the exponential t_min weight of MarginalGrid; e^(-2*40) ~ 1e-35.
_UMAX_LIFETIMES = 40.0
_TMIN_NODES = 400          # Gauss-Legendre nodes of MarginalGrid


@dataclass(frozen=True)
class ModelParams:
    """Oscillation frequency dm [1/ps], lifetime tau [ps], decoherent fraction zeta."""

    dm: float = 0.507
    tau: float = 1.53
    zeta: float = 0.0

    def __post_init__(self):
        _check_positive("dm", self.dm)
        _check_positive("tau", self.tau)
        if not 0.0 <= self.zeta <= 1.0:
            raise ValueError(f"zeta must lie in [0, 1], got {self.zeta}")


def _check_positive(name: str, x):
    """x, if it is positive and finite; a ValueError naming it if not."""
    if not 0 < x < np.inf:
        raise ValueError(f"{name} must be positive and finite, got {x}")
    return x


def _check_nonneg(name, t):
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError(f"{name} must be non-negative")
    return t


def asym_qm(dt, p: ModelParams):
    """Entangled-pair asymmetry cos(dm * dt)."""
    dt = _check_nonneg("dt", dt)
    return np.cos(p.dm * dt)


def asym_sd_marginal(dt, p: ModelParams):
    """Disentangled-pair asymmetry after integrating out t_min at fixed dt.

    Closed form of the exponential-weighted average over t_min of the
    joint asymmetry cos(dm t_min) cos(dm (t_min + dt)):
    0.5 [cos(dm dt) + (cos(dm dt) - dm tau sin(dm dt)) / (1 + (dm tau)^2)].
    """
    dt = _check_nonneg("dt", dt)
    return _sd_from_trig(np.cos(p.dm * dt), np.sin(p.dm * dt), p.dm * p.tau)


def _sd_from_trig(c, s, x):
    """The SD marginal from c, s = cos, sin(dm dt) and x = dm tau."""
    return 0.5 * (c + (c - x * s) / (1.0 + x * x))


def _ps_joint(t_min, dt, dm, upper: bool):
    """Upper or lower joint band edge at (t_min, dt), the toy generator's PS
    draws. With c = cos(dm dt), cos_m = cos(dm t_min) and s_sin_m =
    sin(dm dt) sin(dm t_min):

    upper: 1 - |(1 - c) cos_m + s_sin_m|; lower: 1 - (2 - |psi|) with
    psi = (1 + c) cos_m - s_sin_m. 2 - |psi| is min(2 + psi, 2 - psi) to
    the bit, and 1 - (2 - |psi|) rounds differently from |psi| - 1.
    """
    c, cos_m = np.cos(dm * dt), np.cos(dm * t_min)
    s_sin_m = np.sin(dm * dt) * np.sin(dm * t_min)
    if upper:
        return 1.0 - np.abs((1.0 - c) * cos_m + s_sin_m)
    return 1.0 - (2.0 - np.abs((1.0 + c) * cos_m - s_sin_m))


def _mean_abs_cos(r, alpha, k):
    """r E|cos(x - alpha)| for x ~ k exp(-k x) on [0, inf), alpha in
    [-pi/2, pi/2]. |cos| has period pi, so the mean is the integral over
    one period, where the sign flips at z = alpha + pi/2, over the
    geometric-series factor 1 - exp(-k pi)."""
    def f(x):   # antiderivative of k exp(-k x) cos(x - alpha)
        return (k * np.exp(-k * x) * (np.sin(x - alpha) - k * np.cos(x - alpha))
                / (1.0 + k * k))
    z = alpha + 0.5 * np.pi
    return r * (2.0 * f(z) - f(0.0) - f(np.pi)) / -np.expm1(-k * np.pi)


def ps_band_edges(dt, p: ModelParams):
    """Arrays (lower, upper): the local-realistic band after integrating out
    t_min at each dt, in closed form.

    With x = dm t_min, whose weight is k exp(-k x) for k = 2 / (dm tau),
    the edges are 1 - R E|cos(x - alpha)| (upper: R = |(1 - c, s)|,
    alpha = atan2(s, 1 - c)) and R E|cos(x - alpha)| - 1 (lower:
    R = |(1 + c, s)|, alpha = atan2(-s, 1 + c)), where c, s = cos, sin of
    dm dt. Both first atan2 arguments are >= 0, so alpha lies in
    [-pi/2, pi/2].
    """
    dt = _check_nonneg("dt", dt)
    k = 2.0 / (p.dm * p.tau)
    c, s = np.cos(p.dm * dt), np.sin(p.dm * dt)
    upper = 1.0 - _mean_abs_cos(np.hypot(1.0 - c, s), np.arctan2(s, 1.0 - c), k)
    lower = _mean_abs_cos(np.hypot(1.0 + c, s), np.arctan2(-s, 1.0 + c), k) - 1.0
    return lower, upper


@functools.cache
def _leggauss(n: int) -> tuple:
    """The n-node Gauss-Legendre rule (x, w), built once and read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


class MarginalGrid:
    """Fixed-node Gauss-Legendre average of the band edges over t_min.

    The nodes and weights depend on tau only, so one grid serves every dm.
    Vectorized over dt. The edges have |.| kinks in t_min, which cap the
    Gauss-Legendre convergence: at 400 nodes the grid is off the exact
    ps_band_edges by up to ~1.1e-4, negligible against the per-bin
    measurement errors. The fits keep this grid until the benchmark's
    reference is regenerated: its frozen reference package
    (perfbench/oracle) uses this grid, and the exact band moves printed
    fit-report digits that the benchmark compares (see ROADMAP).

    `edges` sums the nodes once per dm, not once per dt. The psi of the
    lower edge and the bracket of the upper are a cos(theta) + b sin(theta)
    at theta = dm u, with (a, b) = (1 + c, -s) and (1 - c, s) for c, s =
    cos, sin(dm dt). That is R cos(theta - alpha), whose direction alpha
    (mod pi) is the half-angle -dm dt / 2 (lower) or pi/2 - dm dt / 2
    (upper). As alpha runs over [0, pi), node j's sign flips once, at
    (theta_j + pi/2) mod pi. So with the nodes sorted by that angle and
    prefix sums P_k of w sign0 (cos, sin)(theta) over the first k of them
    (sign0: the sign at alpha = 0), the node sum of w |a cos + b sin| is
    |a C_k + b S_k| for (C_k, S_k) = P_n - 2 P_k, where k, the flips
    before alpha, is one `searchsorted`. That is O((nodes + dt) log nodes)
    per call against the O(nodes dt) of a node sum per dt: 0.09-0.12 ms
    for the (11, 64) bin nodes of the fits, against 0.43-0.62 ms for the
    per-dt node sums as two matrix products (one Xeon core, one BLAS
    thread). Both prefix sums are written into one zero-led buffer, and
    sum(w) is taken once per grid. The prefix sums add in their own
    order, so the edges agree with the per-edge node sums of `_ps_joint`
    to ~2e-15, not to the bit; they are deterministic for given dt and dm.
    """

    def __init__(self, tau: float):
        half = _UMAX_LIFETIMES * tau / 2.0
        x, w = _leggauss(_TMIN_NODES)
        self.u = half * (x + 1.0)
        wn = half * w * np.exp(-2.0 * self.u / tau)
        self.w = wn / wn.sum()
        self._sw = self.w.sum()

    def edges(self, dt, dm: float):
        """Arrays (lower, upper) of the band edges averaged over t_min."""
        theta = dm * self.u
        cos = np.cos(theta)
        flip = _mod_pi(theta + 0.5 * np.pi)
        order = np.argsort(flip)
        flips = flip[order]
        w_sign = (self.w * np.sign(cos))[order]
        prefix = np.zeros((2, len(order) + 1))          # k = 0..nodes
        np.multiply(w_sign, cos[order], out=prefix[0, 1:])
        np.multiply(w_sign, np.sin(theta)[order], out=prefix[1, 1:])
        np.cumsum(prefix, axis=1, out=prefix)
        c_k, s_k = prefix[:, -1:] - 2.0 * prefix
        phi = dm * np.asarray(dt, dtype=float)
        c, s = np.cos(phi), np.sin(phi)
        lo = np.searchsorted(flips, _mod_pi(-0.5 * phi))
        up = np.searchsorted(flips, _mod_pi(0.5 * (np.pi - phi)))
        return (np.abs((1.0 + c) * c_k[lo] - s * s_k[lo]) - self._sw,
                self._sw - np.abs((1.0 - c) * c_k[up] + s * s_k[up]))


def _mod_pi(x):
    """x mod pi, up to rounding at either end of [0, pi]. The node sums at
    alpha and alpha + pi differ only in sign, so a key that rounds past
    an end (all flips or none before it) gives the same |sum|."""
    return x - np.pi * np.floor(x / np.pi)


def curve_rows(grid, p: ModelParams):
    """Rows (dt, A_QM, A_SD, PS_min, PS_max) for a dt grid, for plotting."""
    grid = _check_nonneg("grid", grid)
    a_qm = asym_qm(grid, p)
    a_sd = asym_sd_marginal(grid, p)
    ps_lo, ps_up = ps_band_edges(grid, p)
    return np.column_stack([grid, a_qm, a_sd, ps_lo, ps_up])
