"""Weighted least-squares model fits with an external oscillation-frequency
constraint, band fitting with clipped residuals, decoherence-fraction fit, and
chi-square model discrimination."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._minimize import brentq, minimize_bounded
from .analysis import AsymmetrySpectrum, Binning
from .models import (MarginalGrid, ModelParams, _check_positive, _leggauss,
                     _sd_from_trig)

__all__ = [
    "Constraint",
    "FitResult",
    "BinPredictor",
    "chi2",
    "fit_model",
    "fit_zeta",
    "significance",
]

DM_SEARCH = (0.2, 0.9)      # 1/ps bracket for the oscillation frequency
DM_XTOL = 1e-5
BIN_NODES = 64              # Gauss-Legendre nodes per analysis bin


@dataclass(frozen=True)
class Constraint:
    """External measurement of dm entering the chi-square as a pull term."""

    mean: float = 0.496
    sigma: float = 0.014

    def __post_init__(self):
        if not -np.inf < self.mean < np.inf:
            raise ValueError(f"constraint mean must be finite, got {self.mean}")
        if not 0 < self.sigma < np.inf:
            raise ValueError(f"constraint sigma must be positive and finite, "
                             f"got {self.sigma}")

    def term(self, dm: float) -> float:
        return ((dm - self.mean) / self.sigma) ** 2


class FitResult:
    """A fit's estimate, its error and flags, chi-square, dof and pulls.

    `error` returns (theta_err, flags). It is called the first time
    `theta_err` or `flags` is read: a fit whose error nobody reads pays
    only for its minimum.
    """

    def __init__(self, model: str, theta_hat: float, error, chi2: float,
                 dof: int, residuals: np.ndarray, extra: dict | None = None):
        self.model, self.theta_hat, self.chi2 = model, theta_hat, chi2
        self.dof, self.residuals, self._err = dof, residuals, error
        self.extra = {} if extra is None else extra
        if chi2 < 0:
            raise ValueError("chi2 must be non-negative")
        if not np.isfinite(chi2):
            raise ArithmeticError(f"{model} fit: chi-square is not finite")

    @cached_property
    def _error(self) -> tuple:
        err, flags = self._err()
        if err <= 0:
            raise ValueError("theta_err must be positive")
        return err, flags

    @property
    def theta_err(self) -> float:
        return self._error[0]

    @property
    def flags(self) -> list:
        return self._error[1]


class BinPredictor:
    """Rate-weighted bin averages of the model curves over an analysis binning.

    The within-bin weight is the total pair rate exp(-dt/tau), which is
    common to all models considered. cos(dm t) and sin(dm t) at the bin
    nodes are kept for the last dm asked, so the QM, SD and DECOHERED
    predictions of one dm share them.
    """

    def __init__(self, binning: Binning, tau: float = ModelParams().tau):
        self.binning = binning
        self.tau = _check_positive("tau", tau)
        edges = binning.array
        x, w = _leggauss(BIN_NODES)
        half = 0.5 * (edges[1:, None] - edges[:-1, None])
        mid = 0.5 * (edges[1:, None] + edges[:-1, None])
        self._t = mid + half * x                       # (bins, nodes)
        wn = half * w * np.exp(-self._t / tau)
        self._w = wn / wn.sum(axis=1, keepdims=True)
        self._last = None, None, None                  # dm, cos, sin

    @cached_property
    def _grid(self) -> MarginalGrid:
        """The t_min grid of the band; only band predictions build it."""
        return MarginalGrid(self.tau)

    def average(self, f) -> np.ndarray:
        """Rate-weighted bin average of a curve f(dt)."""
        return self._binned(f(self._t))

    def _binned(self, values) -> np.ndarray:
        """Rate-weighted bin averages of values at the bin nodes."""
        return (values * self._w).sum(axis=1)

    def _trig(self, dm: float, sin: bool) -> tuple:
        """(cos, sin) of dm t at the bin nodes, each computed once per dm;
        sin is None unless asked for. The kept (dm, cos, sin) is replaced
        as one tuple, so it always holds one dm's arrays."""
        last, c, s = self._last
        if dm != last:
            last, c, s = dm, np.cos(_check_positive("dm", dm) * self._t), None
        if sin and s is None:
            s = np.sin(dm * self._t)
        self._last = last, c, s
        return c, s

    def predict(self, model: str, dm: float, zeta: float = 0.0) -> np.ndarray:
        """Bin averages of a point model, or of one edge of the
        local-realistic band (the generation models PS_BOUNDARY_MAX/MIN)."""
        if model == "PS_BOUNDARY_MAX":
            return self.band(dm)[1]
        if model == "PS_BOUNDARY_MIN":
            return self.band(dm)[0]
        if model not in ("QM", "SD", "DECOHERED"):
            raise ValueError(f"no point prediction for model {model!r}")
        c, s = self._trig(dm, sin=model != "QM")
        if model == "QM":
            return self._binned(c)
        sd = _sd_from_trig(c, s, dm * self.tau)
        if model == "SD":
            return self._binned(sd)
        return self._binned((1 - zeta) * c + zeta * sd)

    def band(self, dm: float):
        """Per-bin (lower, upper) averages of the local-realistic band."""
        lower, upper = self._grid.edges(self._t, _check_positive("dm", dm))
        return self._binned(lower), self._binned(upper)


def _pulls(spectrum: AsymmetrySpectrum, model: str, dm: float,
           predictor: BinPredictor, zeta: float = 0.0) -> np.ndarray:
    """Residuals over the total errors. Band-model residuals are clipped to
    zero inside the band and measured to the nearest edge outside it."""
    if not spectrum.errors_valid:
        raise ValueError("spectrum errors must be positive and finite")
    if model == "PS":
        lo, up = predictor.band(dm)
        r = np.where(spectrum.a > up, spectrum.a - up,
                     np.where(spectrum.a < lo, lo - spectrum.a, 0.0))
    else:
        r = spectrum.a - predictor.predict(model, dm, zeta)
    return r / spectrum.total_err


def chi2(spectrum: AsymmetrySpectrum, model: str, dm: float, c: Constraint,
         predictor: BinPredictor, zeta: float = 0.0) -> float:
    """Sum of squared pulls plus the external dm pull."""
    r = _pulls(spectrum, model, dm, predictor, zeta)
    return float((r * r).sum() + c.term(dm))


def _one_sigma_interval(fun, x_hat, f_min, label) -> tuple:
    """(lower, upper, flags): where fun crosses f_min + 1 below and above
    x_hat, or the end of DM_SEARCH on a side where it does not."""
    f = lambda x: fun(x) - (f_min + 1.0)
    ends, flags = [], []
    for end, side in zip(DM_SEARCH, ("lower", "upper")):
        try:
            ends.append(brentq(f, *sorted((end, x_hat)), xtol=1e-7))
        except ValueError:
            ends.append(end)
            flags.append(f"{label}: no {side} crossing inside the search range")
    return *ends, flags


def _half_width(x_hat, x_lo, x_hi, label, flags) -> tuple:
    """(half-width, flags) of the interval [x_lo, x_hi] around x_hat:
    `flags`, and a flag if the interval is asymmetric."""
    below, above = x_hat - x_lo, x_hi - x_hat
    mean = 0.5 * (below + above)
    if mean > 0 and abs(below - above) > 0.2 * mean:
        flags = flags + [f"{label}: asymmetric interval "
                         f"(-{below:.4g} / +{above:.4g})"]
    return mean, flags


def _fit_dm(fun) -> tuple:
    """(dm, fun(dm), flags) at the minimum of fun over DM_SEARCH."""
    dm_hat, c2 = minimize_bounded(fun, DM_SEARCH, DM_XTOL)
    flags = []
    if min(dm_hat - DM_SEARCH[0], DM_SEARCH[1] - dm_hat) < 5 * DM_XTOL:
        flags.append("minimum at the edge of the search interval")
    return dm_hat, c2, flags


def fit_model(spectrum: AsymmetrySpectrum, model: str, c: Constraint,
              predictor: BinPredictor) -> FitResult:
    """One-parameter dm fit of a model curve (or band) to a spectrum. The
    dm error, the chi2_min + 1 interval, is computed when first read."""
    fun = lambda dm: chi2(spectrum, model, dm, c, predictor)
    dm_hat, c2, flags = _fit_dm(fun)

    def error():
        lo, hi, more = _one_sigma_interval(fun, dm_hat, c2, "dm")
        return _half_width(dm_hat, lo, hi, "dm", flags + more)

    return FitResult(model=model, theta_hat=dm_hat, error=error,
                     chi2=c2, dof=spectrum.binning.n_bins,
                     residuals=_pulls(spectrum, model, dm_hat, predictor))


def fit_zeta(spectrum: AsymmetrySpectrum, c: Constraint,
             predictor: BinPredictor) -> FitResult:
    """Two-parameter (dm, zeta) fit of the partially decohered curve.

    The curve QM + zeta (SD - QM) is linear in zeta, so at each dm zeta is
    solved exactly, and chi2(dm, zeta) = chi2_prof(dm) + (zeta -
    zeta_hat(dm))^2 sum d^2; dm is fitted on chi2_prof. zeta may float
    below zero. Its error, computed when first read, is the half-width of
    the chi2_min + 1 interval: the union, over the dm stretch where
    chi2_prof <= chi2_min + 1, of zeta_hat(dm) +- sqrt((chi2_min + 1 -
    chi2_prof(dm)) / sum d^2). n_bins points and the dm constraint, less
    two parameters, leave n_bins - 1 dof."""
    def profile(dm):
        """(zeta_hat, chi2 at (dm, zeta_hat), sum d^2) at dm."""
        r = _pulls(spectrum, "QM", dm, predictor)       # (a - QM) / sigma
        d = r - _pulls(spectrum, "SD", dm, predictor)   # (SD - QM) / sigma
        z = float(r @ d / (d @ d))
        return z, chi2(spectrum, "DECOHERED", dm, c, predictor, z), d @ d

    c2_prof = lambda dm: profile(dm)[1]
    dm_hat, c2_min, flags = _fit_dm(c2_prof)
    z_hat = profile(dm_hat)[0]

    def error():
        lo, hi, more = _one_sigma_interval(c2_prof, dm_hat, c2_min, "zeta")

        def f(dm, sign):
            """-sign (zeta_hat + sign sqrt(...)) at dm: its minimum over
            [lo, hi] is the interval's end on the side of sign."""
            z, c2, dd = profile(dm)
            return -sign * z - np.sqrt(max(c2_min + 1.0 - c2, 0.0) / dd)

        # found to 1e-7 in dm, as the crossings are; a stretch may stop at
        # DM_SEARCH, so its ends are candidates too
        z_lo, z_hi = (-s * float(min(f(lo, s), f(hi, s), minimize_bounded(
            lambda dm: f(dm, s), (lo, hi), 1e-7)[1])) for s in (-1.0, 1.0))
        return _half_width(z_hat, z_lo, z_hi, "zeta", flags + more)

    return FitResult(model="DECOHERED", theta_hat=z_hat, error=error,
                     chi2=c2_min, dof=spectrum.binning.n_bins - 1,
                     residuals=_pulls(spectrum, "DECOHERED", dm_hat,
                                      predictor, z_hat),
                     extra={"dm": dm_hat})


def significance(fit_a: FitResult, fit_b: FitResult) -> float:
    """sqrt(chi2_b - chi2_a) in sigma units; signed negative if b fits better."""
    d = fit_b.chi2 - fit_a.chi2
    return float(np.sqrt(d)) if d >= 0 else -float(np.sqrt(-d))
