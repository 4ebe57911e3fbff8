"""Binned asymmetry estimation: histogramming, background subtraction,
mistag correction, and error propagation."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._table import read_table, write_table
from .toygen import CLS_OF, BackgroundConfig

__all__ = [
    "DEFAULT_EDGES",
    "Binning",
    "BinnedCounts",
    "AsymmetrySpectrum",
    "bin_events",
    "expected_background_counts",
    "subtract_background",
    "asymmetry",
    "WRONG_TAG_ERROR",
    "BOOTSTRAP_SEED",
    "mistag_correct_counts",
    "mistag_systematic",
    "write_spectrum",
    "read_spectrum",
    "write_counts",
    "read_counts",
]

DEFAULT_EDGES = (0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 9.0, 13.0, 20.0)
WRONG_TAG_ERROR = 0.005   # uncertainty on the mistag fraction
BOOTSTRAP_SEED = 20060207  # degenerate-bin bootstrap: fixed seed
BOOTSTRAP_DRAWS = 10000    # and number of draws


@dataclass(frozen=True)
class Binning:
    edges: tuple = DEFAULT_EDGES

    def __post_init__(self):
        e = np.asarray(self.edges, dtype=float)
        if len(e) < 2 or np.any(np.diff(e) <= 0):
            raise ValueError("bin edges must be strictly increasing")
        if e[0] < 0:
            raise ValueError("first edge must be non-negative")

    @property
    def n_bins(self) -> int:
        return len(self.edges) - 1

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.edges, dtype=float)


@dataclass
class BinnedCounts:
    """Per-bin OF and SF contents; floats, since subtraction de-integerizes.

    var_of/var_sf carry the propagated variances (Poisson for raw counts).
    """

    binning: Binning
    n_of: np.ndarray
    n_sf: np.ndarray
    var_of: np.ndarray = None
    var_sf: np.ndarray = None
    overflow_of: float = 0.0
    overflow_sf: float = 0.0

    def __post_init__(self):
        nb = self.binning.n_bins
        self.n_of = np.asarray(self.n_of, dtype=float)
        self.n_sf = np.asarray(self.n_sf, dtype=float)
        if len(self.n_of) != nb or len(self.n_sf) != nb:
            raise ValueError("count vectors do not match the binning")
        if self.var_of is None:
            self.var_of = self.n_of.copy()
        if self.var_sf is None:
            self.var_sf = self.n_sf.copy()
        self.var_of = np.asarray(self.var_of, dtype=float)
        self.var_sf = np.asarray(self.var_sf, dtype=float)

    @property
    def negative_bins(self) -> np.ndarray:
        """Indices where subtraction drove a count negative (flagged, not clamped)."""
        return np.flatnonzero((self.n_of < 0) | (self.n_sf < 0))


@dataclass
class AsymmetrySpectrum:
    binning: Binning
    a: np.ndarray
    stat_err: np.ndarray
    syst_breakdown: dict = field(default_factory=dict)  # source -> per-bin array

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=float)
        self.stat_err = np.asarray(self.stat_err, dtype=float)

    @property
    def syst_err(self) -> np.ndarray:
        if not self.syst_breakdown:
            return np.zeros(self.binning.n_bins)
        stacked = np.vstack(list(self.syst_breakdown.values()))
        with np.errstate(over="ignore"):    # inf, which chi2 rejects
            return np.sqrt((stacked ** 2).sum(axis=0))

    @property
    def total_err(self) -> np.ndarray:
        with np.errstate(over="ignore"):
            return np.sqrt(self.stat_err ** 2 + self.syst_err ** 2)

    def with_syst(self, source: str, values) -> "AsymmetrySpectrum":
        bd = dict(self.syst_breakdown)
        bd[source] = np.asarray(values, dtype=float)
        return AsymmetrySpectrum(self.binning, self.a, self.stat_err, bd)


def bin_events(events: np.ndarray, binning: Binning,
               which_dt: str = "reconstructed",
               which_cls: str = "assigned") -> BinnedCounts:
    """Histogram OF/SF events into the analysis bins; overflow kept aside."""
    if which_dt not in ("true", "reconstructed"):
        raise ValueError("which_dt must be 'true' or 'reconstructed'")
    if which_cls not in ("true", "assigned"):
        raise ValueError("which_cls must be 'true' or 'assigned'")
    dt = events["dt_true_ps" if which_dt == "true" else "dt_rec_ps"]
    cls = events["cls_true" if which_cls == "true" else "cls_assigned"]
    edges = binning.array
    is_of = cls == CLS_OF
    n_of, _ = np.histogram(dt[is_of], bins=edges)
    n_sf, _ = np.histogram(dt[~is_of], bins=edges)
    in_range = (dt >= edges[0]) & (dt < edges[-1])
    over_of = int(np.sum(is_of & ~in_range))
    over_sf = int(np.sum(~is_of & ~in_range))
    return BinnedCounts(binning, n_of.astype(float), n_sf.astype(float),
                        overflow_of=over_of, overflow_sf=over_sf)


def expected_background_counts(b: BackgroundConfig, binning: Binning):
    """Per-bin expected OF/SF background counts and their yield variances."""
    nb = binning.n_bins
    exp_of = np.zeros(nb)
    exp_sf = np.zeros(nb)
    var_of = np.zeros(nb)
    var_sf = np.zeros(nb)
    for cat, y in b.yields.items():
        frac = y.shape.bin_fractions(binning.array)
        exp_of += y.n_of * frac
        exp_sf += y.n_sf * frac
        var_of += (y.n_of_err * frac) ** 2
        var_sf += (y.n_sf_err * frac) ** 2
    return exp_of, exp_sf, var_of, var_sf


def subtract_background(c: BinnedCounts, b: BackgroundConfig):
    """Remove expected background per bin.

    Returns the subtracted counts (variances inflated by the yield errors)
    and the per-bin systematic on the asymmetry from those yield errors.
    """
    exp_of, exp_sf, var_of, var_sf = expected_background_counts(b, c.binning)
    out = BinnedCounts(
        c.binning,
        c.n_of - exp_of,
        c.n_sf - exp_sf,
        var_of=c.var_of + var_of,
        var_sf=c.var_sf + var_sf,
        overflow_of=c.overflow_of,
        overflow_sf=c.overflow_sf,
    )
    # effect of 1-sigma yield shifts on the asymmetry, combined in quadrature
    tot = out.n_of + out.n_sf
    safe = np.where(tot == 0, 1.0, tot)
    dA_of = 2.0 * out.n_sf / safe ** 2 * np.sqrt(var_of)
    dA_sf = 2.0 * out.n_of / safe ** 2 * np.sqrt(var_sf)
    syst = np.hypot(dA_of, dA_sf)
    return out, syst


def asymmetry(c: BinnedCounts) -> AsymmetrySpectrum:
    """(OF - SF) / (OF + SF) per bin with propagated statistical errors.

    For raw Poisson counts the error reduces to the binomial formula
    2 sqrt(n_of n_sf / n^3). Degenerate bins (one class empty) get a
    bootstrap error instead of the spuriously zero binomial one.
    """
    tot = c.n_of + c.n_sf
    if np.any(tot <= 0):
        bad = int(np.flatnonzero(tot <= 0)[0])
        raise ValueError(f"empty bin {bad}: cannot form an asymmetry")
    a = (c.n_of - c.n_sf) / tot
    # linear propagation of var(n_of), var(n_sf) through the ratio
    err = 2.0 / tot ** 2 * np.sqrt(c.n_sf ** 2 * c.var_of + c.n_of ** 2 * c.var_sf)
    degenerate = (c.n_of <= 0) | (c.n_sf <= 0)
    if np.any(degenerate):
        rng = np.random.default_rng(BOOTSTRAP_SEED)
        for i in np.flatnonzero(degenerate):
            n = max(int(round(tot[i])), 1)
            # rule-of-succession clip keeps the bootstrap spread non-zero
            # when one class is empty or was subtracted below zero
            p_lo = 1.0 / (n + 2.0)
            p_of = min(max(c.n_of[i] / tot[i], p_lo), 1.0 - p_lo)
            draws = rng.binomial(n, p_of, size=BOOTSTRAP_DRAWS)
            err[i] = np.std(2.0 * draws / n - 1.0)
    return AsymmetrySpectrum(c.binning, a, err)


def _dilution(w: float) -> float:
    if not 0.0 <= w < 0.5:
        raise ValueError("mistag fraction must lie in [0, 0.5)")
    return 1.0 - 2.0 * w


def mistag_correct_counts(c: BinnedCounts, w: float) -> BinnedCounts:
    """Invert the per-event flip probability at the count level.

    The corrected asymmetry equals the observed one divided by (1 - 2w);
    the OF+SF sum is preserved.
    """
    d = _dilution(w)
    if w == 0.0:
        return c
    n_of = ((1.0 - w) * c.n_of - w * c.n_sf) / d
    n_sf = ((1.0 - w) * c.n_sf - w * c.n_of) / d
    var_of = ((1.0 - w) ** 2 * c.var_of + w ** 2 * c.var_sf) / d ** 2
    var_sf = ((1.0 - w) ** 2 * c.var_sf + w ** 2 * c.var_of) / d ** 2
    return BinnedCounts(c.binning, n_of, n_sf, var_of=var_of, var_sf=var_sf,
                        overflow_of=c.overflow_of, overflow_sf=c.overflow_sf)


def mistag_systematic(spectrum: AsymmetrySpectrum, w: float,
                      w_err: float = WRONG_TAG_ERROR) -> np.ndarray:
    """Per-bin shift of a mistag-corrected asymmetry under w -> w +/- w_err,
    with the shifted fractions clamped to [0, 0.499999]."""
    a_obs = spectrum.a * _dilution(w)
    up = a_obs / (1.0 - 2.0 * min(w + w_err, 0.499999))
    dn = a_obs / (1.0 - 2.0 * max(w - w_err, 0.0))
    return np.maximum(np.abs(up - spectrum.a), np.abs(dn - spectrum.a))


_SPECTRUM_HEADER = ["bin", "lo_ps", "hi_ps", "a", "stat", "syst_total"]
_COUNTS_HEADER = ["bin", "lo_ps", "hi_ps", "n_of", "var_of", "n_sf", "var_sf"]


def _bin_columns(binning: Binning) -> list:
    edges = binning.array
    return [np.arange(1, binning.n_bins + 1), edges[:-1], edges[1:]]


def write_spectrum(s: AsymmetrySpectrum, path) -> None:
    """Table-layout delimited text: bin, window, a, stat, syst_total, sources."""
    sources = sorted(s.syst_breakdown)
    columns = _bin_columns(s.binning) + [s.a, s.stat_err, s.syst_err] + [
        s.syst_breakdown[src] for src in sources]
    write_table(path, columns, ["%d"] + ["%.9g"] * (len(columns) - 1),
                _SPECTRUM_HEADER + sources)


def read_spectrum(path) -> AsymmetrySpectrum:
    t = read_table(path, _SPECTRUM_HEADER, extra=True)
    syst_total = t.numbers(5)
    breakdown = {src: t.numbers(j) for j, src in enumerate(t.header[6:], 6)}
    if not breakdown and syst_total.any():
        breakdown = {"total": syst_total}
    return AsymmetrySpectrum(Binning(t.edges()), t.numbers(3), t.numbers(4),
                             breakdown)


def write_counts(c: BinnedCounts, path) -> None:
    columns = _bin_columns(c.binning) + [c.n_of, c.var_of, c.n_sf, c.var_sf]
    write_table(path, columns, ["%d"] + ["%.9g"] * 6, _COUNTS_HEADER)


def read_counts(path) -> BinnedCounts:
    """Counts from a file written by `write_counts`; rejects negative
    variances."""
    t = read_table(path, _COUNTS_HEADER)
    var_of, var_sf = t.numbers(4), t.numbers(6)
    if np.any(var_of < 0) or np.any(var_sf < 0):
        raise ValueError(f"{path}: negative variance")
    return BinnedCounts(Binning(t.edges()), n_of=t.numbers(3),
                        n_sf=t.numbers(5), var_of=var_of, var_sf=var_sf)
