"""Weighted least-squares model fits with an external oscillation-frequency
constraint, band fitting with clipped residuals, decoherence-fraction fit, and
chi-square model discrimination."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._minimize import brentq, minimize_bounded
from .analysis import AsymmetrySpectrum, Binning
from .models import MarginalGrid, ModelParams, _leggauss, asym_sd_marginal

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
    common to all models considered.
    """

    def __init__(self, binning: Binning, tau: float = ModelParams().tau):
        self.binning = binning
        self.tau = tau
        edges = binning.array
        x, w = _leggauss(BIN_NODES)
        half = 0.5 * (edges[1:, None] - edges[:-1, None])
        mid = 0.5 * (edges[1:, None] + edges[:-1, None])
        self._t = mid + half * x                       # (bins, nodes)
        wn = half * w * np.exp(-self._t / tau)
        self._w = wn / wn.sum(axis=1, keepdims=True)

    @cached_property
    def _grid(self) -> MarginalGrid:
        """The t_min grid of the band; only band predictions build it."""
        return MarginalGrid(self.tau)

    def average(self, f) -> np.ndarray:
        """Rate-weighted bin average of a curve f(dt)."""
        return (f(self._t) * self._w).sum(axis=1)

    def predict(self, model: str, dm: float, zeta: float = 0.0) -> np.ndarray:
        """Bin averages of a point model, or of one edge of the
        local-realistic band (the generation models PS_BOUNDARY_MAX/MIN)."""
        p = ModelParams(dm=dm, tau=self.tau)
        if model == "QM":
            return self.average(lambda t: np.cos(dm * t))
        if model == "SD":
            return self.average(lambda t: asym_sd_marginal(t, p))
        if model == "DECOHERED":
            return self.average(
                lambda t: (1 - zeta) * np.cos(dm * t)
                + zeta * asym_sd_marginal(t, p))
        if model == "PS_BOUNDARY_MAX":
            return self.band(dm)[1]
        if model == "PS_BOUNDARY_MIN":
            return self.band(dm)[0]
        raise ValueError(f"no point prediction for model {model!r}")

    def band(self, dm: float):
        """Per-bin (lower, upper) averages of the local-realistic band."""
        lower, upper = self._grid.edges(self._t, dm)
        return (lower * self._w).sum(axis=1), (upper * self._w).sum(axis=1)


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
    return float(np.sum(_pulls(spectrum, model, dm, predictor, zeta) ** 2)
                 + c.term(dm))


def _one_sigma_interval(fun, x_hat, f_min, lo, hi, label) -> tuple:
    """(half-width, flags) of the fun = f_min + 1 interval around x_hat."""
    target, flags = f_min + 1.0, []
    try:
        x_lo = brentq(lambda x: fun(x) - target, lo, x_hat, xtol=1e-7)
    except ValueError:
        x_lo = lo
        flags.append(f"{label}: no lower crossing inside the search range")
    try:
        x_hi = brentq(lambda x: fun(x) - target, x_hat, hi, xtol=1e-7)
    except ValueError:
        x_hi = hi
        flags.append(f"{label}: no upper crossing inside the search range")
    below, above = x_hat - x_lo, x_hi - x_hat
    mean = 0.5 * (below + above)
    if mean > 0 and abs(below - above) > 0.2 * mean:
        flags.append(f"{label}: asymmetric interval "
                     f"(-{below:.4g} / +{above:.4g})")
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
        err, more = _one_sigma_interval(fun, dm_hat, c2, *DM_SEARCH, "dm")
        return err, flags + more

    return FitResult(model=model, theta_hat=dm_hat, error=error,
                     chi2=c2, dof=spectrum.binning.n_bins,
                     residuals=_pulls(spectrum, model, dm_hat, predictor))


def fit_zeta(spectrum: AsymmetrySpectrum, c: Constraint,
             predictor: BinPredictor) -> FitResult:
    """Two-parameter (dm, zeta) fit of the partially decohered curve.

    The curve QM + zeta (SD - QM) is linear in zeta, so dm is fitted with
    zeta solved exactly at each dm. zeta may float below zero; its error
    comes from the profile chi-square crossing chi2_min + 1, and is
    computed, with the probe of the profile's flatness, when first read.
    n_bins points and the dm constraint, less two parameters, leave
    n_bins - 1 dof."""
    c2 = lambda dm, z: chi2(spectrum, "DECOHERED", dm, c, predictor, z)
    profile = lambda z: minimize_bounded(lambda dm: c2(dm, z), DM_SEARCH,
                                         DM_XTOL)[1]

    def zeta_hat(dm):
        r = _pulls(spectrum, "QM", dm, predictor)       # (a - QM) / sigma
        d = r - _pulls(spectrum, "SD", dm, predictor)   # (SD - QM) / sigma
        return float(r @ d / (d @ d))

    dm_hat, c2_min, flags = _fit_dm(lambda dm: c2(dm, zeta_hat(dm)))
    z_hat = zeta_hat(dm_hat)

    def error():
        flat = (["zeta profile is nearly flat"]
                if profile(z_hat + 0.5) - c2_min < 0.05 else [])
        err, more = _one_sigma_interval(profile, z_hat, c2_min, z_hat - 1.0,
                                        z_hat + 1.0, "zeta")
        return err, flags + flat + more

    return FitResult(model="DECOHERED", theta_hat=z_hat, error=error,
                     chi2=c2_min, dof=spectrum.binning.n_bins - 1,
                     residuals=_pulls(spectrum, "DECOHERED", dm_hat,
                                      predictor, z_hat),
                     extra={"dm": dm_hat})


def significance(fit_a: FitResult, fit_b: FitResult) -> float:
    """sqrt(chi2_b - chi2_a) in sigma units; signed negative if b fits better."""
    d = fit_b.chi2 - fit_a.chi2
    return float(np.sqrt(d)) if d >= 0 else -float(np.sqrt(-d))
