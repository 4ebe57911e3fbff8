"""Flavour-asymmetry predictions for entangled and local-realistic B-pair models.

All times are in picoseconds; asymmetries are dimensionless and lie in
[-1, 1]. Functions accept scalars or numpy arrays and are pure.
"""

from __future__ import annotations

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
        if not self.dm > 0:
            raise ValueError(f"dm must be positive, got {self.dm}")
        if not self.tau > 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
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


def _ps_edge(upper: bool, c, cos_m, s_sin_m, out=None):
    """One edge of the local-realistic band at fixed (t_min, dt), from the
    trig values c = cos(dm dt), cos_m = cos(dm t_min) and
    s_sin_m = sin(dm dt) sin(dm t_min); computed in `out` when given.

    upper: 1 - |(1 - c) cos_m + s_sin_m|; lower: 1 - (2 - |psi|) with
    psi = (1 + c) cos_m - s_sin_m. 2 - |psi| is min(2 + psi, 2 - psi) to
    the bit, and 1 - (2 - |psi|) rounds differently from |psi| - 1.
    """
    if out is None:
        out = np.empty(np.broadcast(c, cos_m, s_sin_m).shape)
    if upper:
        x = np.multiply(1.0 - c, cos_m, out=out)
        x += s_sin_m
        np.abs(x, out=x)
        return np.subtract(1.0, x, out=x)
    x = np.multiply(1.0 + c, cos_m, out=out)
    x -= s_sin_m
    np.abs(x, out=x)
    np.subtract(2.0, x, out=x)
    return np.subtract(1.0, x, out=x)


def _ps_joint(t_min, dt, dm, upper: bool):
    """Upper or lower joint band edge at (t_min, dt)."""
    return _ps_edge(upper, np.cos(dm * dt), np.cos(dm * t_min),
                    np.sin(dm * dt) * np.sin(dm * t_min))


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

    `edges` makes one pass for both edges. The trig values of dm dt and
    dm t_min and the product sin(dm dt) sin(dm t_min) are computed once
    and shared; each edge is formed in place in a (block, nodes) buffer
    and summed per dt row, so every value is the one the per-edge
    formulas give, to the bit.
    """

    def __init__(self, tau: float):
        half = _UMAX_LIFETIMES * tau / 2.0
        x, w = np.polynomial.legendre.leggauss(_TMIN_NODES)
        self.u = half * (x + 1.0)
        wn = half * w * np.exp(-2.0 * self.u / tau)
        self.w = wn / wn.sum()

    def edges(self, dt, dm: float):
        """Arrays (lower, upper) of the band edges averaged over t_min."""
        # In blocks of dt values: a (block, nodes) buffer stays in the CPU
        # cache where one for every dt would not, and each dt's sum over
        # the nodes is the same either way.
        dt = np.asarray(dt, dtype=float)
        flat = dt.reshape(-1, 1)
        c, s = np.cos(dm * flat), np.sin(dm * flat)
        cos_m, sin_m = np.cos(dm * self.u), np.sin(dm * self.u)
        n = min(len(flat), _DT_BLOCK)
        s_sin_m, buf = np.empty((n, len(self.u))), np.empty((n, len(self.u)))
        edges = np.empty((2, len(flat)))                    # lower, upper
        for i in range(0, len(flat), _DT_BLOCK):
            rows = slice(i, i + _DT_BLOCK)
            k = len(c[rows])
            ss = np.multiply(s[rows], sin_m, out=s_sin_m[:k])
            for j, upper in enumerate((False, True)):
                x = _ps_edge(upper, c[rows], cos_m, ss, out=buf[:k])
                x *= self.w
                edges[j, rows] = x.sum(axis=-1)
        return tuple(edges.reshape((2,) + dt.shape))


def curve_rows(grid, p: ModelParams):
    """Rows (dt, A_QM, A_SD, PS_min, PS_max) for a dt grid, for plotting."""
    grid = _check_nonneg("grid", grid)
    a_qm = asym_qm(grid, p)
    a_sd = asym_sd_marginal(grid, p)
    ps_lo, ps_up = ps_band_edges(grid, p)
    return np.column_stack([grid, a_qm, a_sd, ps_lo, ps_up])
