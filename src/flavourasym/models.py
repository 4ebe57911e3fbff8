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
_DT_BLOCK = 64             # dt values per MarginalGrid evaluation block


@dataclass(frozen=True)
class ModelParams:
    """Oscillation frequency dm [1/ps], lifetime tau [ps], decoherent fraction zeta."""

    dm: float = 0.507
    tau: float = 1.53
    zeta: float = 0.0

    def __post_init__(self):
        if not 0 < self.dm < np.inf:
            raise ValueError(f"dm must be positive and finite, got {self.dm}")
        if not 0 < self.tau < np.inf:
            raise ValueError(f"tau must be positive and finite, got {self.tau}")
        if not 0.0 <= self.zeta <= 1.0:
            raise ValueError(f"zeta must lie in [0, 1], got {self.zeta}")


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
    x = p.dm * p.tau
    c, s = np.cos(p.dm * dt), np.sin(p.dm * dt)
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

    `edges` takes two matrix products per block of dt rows: Y = C @ T,
    with C the rows (1 + c, -s) (psi of the lower edge) and (1 - c, s)
    (the upper), c, s = cos, sin(dm dt), and T = (cos, sin)(dm u) at the
    nodes u; then m = |Y| @ w, lower = m_lo - sum(w), upper = sum(w) -
    m_up. BLAS sums in its own order: the edges agree with the per-edge
    formulas to ~1e-15, not to the bit, and are deterministic for a call
    of a given shape.
    """

    def __init__(self, tau: float):
        half = _UMAX_LIFETIMES * tau / 2.0
        x, w = _leggauss(_TMIN_NODES)
        self.u = half * (x + 1.0)
        wn = half * w * np.exp(-2.0 * self.u / tau)
        self.w = wn / wn.sum()

    def edges(self, dt, dm: float):
        """Arrays (lower, upper) of the band edges averaged over t_min."""
        # blocks of dt rows keep the (2, block, nodes) buffer in the cache
        dt = np.asarray(dt, dtype=float)
        flat = dt.reshape(-1)
        c, s = np.cos(dm * flat), np.sin(dm * flat)
        rows = np.array([[1.0 + c, -s], [1.0 - c, s]]).transpose(0, 2, 1)
        trig = np.stack([np.cos(dm * self.u), np.sin(dm * self.u)])
        buf = np.empty((2, min(len(flat), _DT_BLOCK), len(self.u)))
        m = np.empty((2, len(flat)))                          # lower, upper
        for i in range(0, len(flat), _DT_BLOCK):
            block = rows[:, i:i + _DT_BLOCK]
            y = np.matmul(block, trig, out=buf[:, :block.shape[1]])
            np.abs(y, out=y)
            m[:, i:i + _DT_BLOCK] = y @ self.w
        sw = self.w.sum()
        return (m[0] - sw).reshape(dt.shape), (sw - m[1]).reshape(dt.shape)


def curve_rows(grid, p: ModelParams):
    """Rows (dt, A_QM, A_SD, PS_min, PS_max) for a dt grid, for plotting."""
    grid = _check_nonneg("grid", grid)
    a_qm = asym_qm(grid, p)
    a_sd = asym_sd_marginal(grid, p)
    ps_lo, ps_up = ps_band_edges(grid, p)
    return np.column_stack([grid, a_qm, a_sd, ps_lo, ps_up])
