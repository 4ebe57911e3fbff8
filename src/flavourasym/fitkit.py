"""Weighted least-squares model fits with an external oscillation-frequency
constraint, band fitting with clipped residuals, decoherence-fraction fit, and
chi-square model discrimination."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import optimize

from .analysis import AsymmetrySpectrum, Binning
from .models import MarginalGrid, ModelParams, asym_sd_marginal

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
ZETA_XTOL = 1e-4
BIN_NODES = 64              # Gauss-Legendre nodes per analysis bin


@dataclass(frozen=True)
class Constraint:
    """External measurement of dm entering the chi-square as a pull term."""

    mean: float = 0.496
    sigma: float = 0.014

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("constraint sigma must be positive")

    def term(self, dm: float) -> float:
        return ((dm - self.mean) / self.sigma) ** 2


@dataclass
class FitResult:
    model: str
    theta_hat: float
    theta_err: float
    chi2: float
    dof: int
    residuals: np.ndarray
    flags: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.theta_err <= 0:
            raise ValueError("theta_err must be positive")
        if self.chi2 < 0:
            raise ValueError("chi2 must be non-negative")
        if not np.isfinite(self.chi2):
            raise ArithmeticError(f"{self.model} fit: chi-square is not finite")


class BinPredictor:
    """Rate-weighted bin averages of the model curves over an analysis binning.

    The within-bin weight is the total pair rate exp(-dt/tau), which is
    common to all models considered.
    """

    def __init__(self, binning: Binning, tau: float = ModelParams().tau):
        self.binning = binning
        self.tau = tau
        edges = binning.array
        x, w = np.polynomial.legendre.leggauss(BIN_NODES)
        half = 0.5 * (edges[1:, None] - edges[:-1, None])
        mid = 0.5 * (edges[1:, None] + edges[:-1, None])
        self._t = mid + half * x                       # (bins, nodes)
        wn = half * w * np.exp(-self._t / tau)
        self._w = wn / wn.sum(axis=1, keepdims=True)
        self._grid = MarginalGrid(tau)

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
        return (self.average(lambda t: self._grid.ps_lower(t, dm)),
                self.average(lambda t: self._grid.ps_upper(t, dm)))


def _residuals(spectrum: AsymmetrySpectrum, model: str, dm: float,
               predictor: BinPredictor, zeta: float = 0.0):
    if model == "PS":
        lo, up = predictor.band(dm)
        return np.where(spectrum.a > up, spectrum.a - up,
                        np.where(spectrum.a < lo, lo - spectrum.a, 0.0))
    return spectrum.a - predictor.predict(model, dm, zeta)


def chi2(spectrum: AsymmetrySpectrum, model: str, dm: float, c: Constraint,
         predictor: BinPredictor | None = None, zeta: float = 0.0) -> float:
    """Weighted sum of squared residuals plus the external dm pull.

    Band-model residuals are clipped to zero inside the band and measured
    to the nearest edge outside it.
    """
    if predictor is None:
        predictor = BinPredictor(spectrum.binning)
    sigma = spectrum.total_err
    if not np.all(np.isfinite(sigma) & (sigma > 0)):
        raise ValueError("spectrum errors must be positive and finite")
    r = _residuals(spectrum, model, dm, predictor, zeta)
    return float(np.sum((r / sigma) ** 2) + c.term(dm))


def _one_sigma_interval(fun, x_hat, f_min, lo, hi, label, flags):
    """Half-width of the fun = f_min + 1 interval around x_hat."""
    target = f_min + 1.0
    try:
        x_lo = optimize.brentq(lambda x: fun(x) - target, lo, x_hat, xtol=1e-7)
    except ValueError:
        x_lo = lo
        flags.append(f"{label}: no lower crossing inside the search range")
    try:
        x_hi = optimize.brentq(lambda x: fun(x) - target, x_hat, hi, xtol=1e-7)
    except ValueError:
        x_hi = hi
        flags.append(f"{label}: no upper crossing inside the search range")
    below, above = x_hat - x_lo, x_hi - x_hat
    mean = 0.5 * (below + above)
    if mean > 0 and abs(below - above) > 0.2 * mean:
        flags.append(f"{label}: asymmetric interval "
                     f"(-{below:.4g} / +{above:.4g})")
    return mean


def fit_model(spectrum: AsymmetrySpectrum, model: str, c: Constraint,
              predictor: BinPredictor | None = None) -> FitResult:
    """One-parameter dm fit of a model curve (or band) to a spectrum."""
    if predictor is None:
        predictor = BinPredictor(spectrum.binning)
    fun = lambda dm: chi2(spectrum, model, dm, c, predictor)
    res = optimize.minimize_scalar(fun, bounds=DM_SEARCH, method="bounded",
                                   options={"xatol": DM_XTOL})
    dm_hat, c2 = float(res.x), float(res.fun)
    flags = []
    if min(dm_hat - DM_SEARCH[0], DM_SEARCH[1] - dm_hat) < 5 * DM_XTOL:
        flags.append("minimum at the edge of the search interval")
    err = _one_sigma_interval(fun, dm_hat, c2, *DM_SEARCH, "dm", flags)
    r = _residuals(spectrum, model, dm_hat, predictor)
    return FitResult(model=model, theta_hat=dm_hat, theta_err=err,
                     chi2=c2, dof=spectrum.binning.n_bins,
                     residuals=r / spectrum.total_err, flags=flags)


def fit_zeta(spectrum: AsymmetrySpectrum, c: Constraint,
             predictor: BinPredictor | None = None) -> FitResult:
    """Two-parameter (dm, zeta) fit of the partially decohered curve.

    zeta is left free to float below zero; the quoted error comes from the
    profile chi-square crossing chi2_min + 1.
    """
    if predictor is None:
        predictor = BinPredictor(spectrum.binning)
    sigma = spectrum.total_err

    def c2(params):
        dm, z = params
        r = spectrum.a - predictor.predict("DECOHERED", dm, z)
        return float(np.sum((r / sigma) ** 2) + c.term(dm))

    res = optimize.minimize(c2, x0=[c.mean, 0.0], method="Nelder-Mead",
                            options={"xatol": min(DM_XTOL, ZETA_XTOL),
                                     "fatol": 1e-10, "maxiter": 2000})
    dm_hat, z_hat = (float(v) for v in res.x)
    c2_min = float(res.fun)
    flags = []

    def profile(z):
        r = optimize.minimize_scalar(lambda dm: c2([dm, z]), bounds=DM_SEARCH,
                                     method="bounded",
                                     options={"xatol": DM_XTOL})
        return float(r.fun)

    if profile(z_hat + 0.5) - c2_min < 0.05:
        flags.append("zeta profile is nearly flat")
    err = _one_sigma_interval(profile, z_hat, c2_min, z_hat - 1.0,
                              z_hat + 1.0, "zeta", flags)
    r = spectrum.a - predictor.predict("DECOHERED", dm_hat, z_hat)
    return FitResult(model="DECOHERED", theta_hat=z_hat, theta_err=err,
                     chi2=c2_min, dof=spectrum.binning.n_bins,
                     residuals=r / sigma, flags=flags,
                     extra={"dm": dm_hat})


def significance(fit_a: FitResult, fit_b: FitResult) -> float:
    """sqrt(chi2_b - chi2_a) in sigma units; signed negative if b fits better."""
    d = fit_b.chi2 - fit_a.chi2
    return float(np.sqrt(d)) if d >= 0 else -float(np.sqrt(-d))
