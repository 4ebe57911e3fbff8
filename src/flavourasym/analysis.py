"""Binned asymmetry estimation: histogramming, background subtraction,
mistag correction, and error propagation."""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property, partial
from types import MappingProxyType

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
    "mistag_correct_counts",
    "mistag_systematic",
    "write_spectrum",
    "read_spectrum",
    "write_counts",
    "read_counts",
]

DEFAULT_EDGES = (0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 9.0, 13.0, 20.0)
WRONG_TAG_ERROR = 0.005   # uncertainty on the mistag fraction


@dataclass(frozen=True)
class Binning:
    edges: tuple = DEFAULT_EDGES

    def __post_init__(self):
        e = np.asarray(self.edges, dtype=float)
        if not np.all(np.isfinite(e)):
            raise ValueError("bin edges must be finite")
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

    def index(self, x) -> np.ndarray:
        """The number of edges <= x for each value, as `np.searchsorted(
        edges, x, side="right")` counts them, but with a value on the last
        edge in the last bin, as `np.histogram` bins it: 0 below the range,
        k + 1 in bin k, and n_bins + 1 above the range and for NaN.

        One comparison per edge, added without branches into the smallest
        unsigned integer that holds the edge count: O(n * edges). On one
        Xeon core and 2M values it takes 12-17 ms on the 12 default edges
        against 33-46 ms for `searchsorted`, whose binary search wins from
        about 50 edges on.
        """
        e = self.array
        x = np.ascontiguousarray(x, dtype=float)  # an event column is strided
        below = np.zeros(x.shape, dtype=np.min_scalar_type(len(e)))
        for edge in e[:-1]:
            below += x < edge
        below += x <= e[-1]
        return len(e) - below


@dataclass
class BinnedCounts:
    """Per-bin contents of the two classes; floats, since subtraction
    de-integerizes.

    `n` and `var`, the propagated variances (Poisson for raw counts), have
    shape (2, n_bins) with the OF row first, so `n[::-1]` swaps the classes;
    `overflow` holds the (OF, SF) events outside the bins.
    """

    binning: Binning
    n: np.ndarray
    var: np.ndarray = None
    overflow: tuple = (0, 0)

    def __post_init__(self):
        self.n = np.asarray(self.n, dtype=float)
        if self.n.shape != (2, self.binning.n_bins):
            raise ValueError(f"counts of shape {self.n.shape} do not match "
                             f"the (2, {self.binning.n_bins}) of the binning")
        self.var = (self.n.copy() if self.var is None
                    else np.asarray(self.var, dtype=float))
        if self.var.shape != self.n.shape:
            raise ValueError(f"variances of shape {self.var.shape} do not "
                             f"match the counts' {self.n.shape}")
        if np.any(self.var < 0):
            raise ValueError("negative variance")

    @property
    def negative_bins(self) -> np.ndarray:
        """Indices where subtraction drove a count negative (flagged, not clamped)."""
        return np.flatnonzero((self.n < 0).any(axis=0))

    @property
    def degenerate_bins(self) -> np.ndarray:
        """Indices where the OF + SF total is <= 0, so no asymmetry is
        measured (read as 0 +- 1)."""
        return np.flatnonzero(self.n.sum(axis=0) <= 0)


def _read_only(values) -> np.ndarray:
    a = np.array(values, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class AsymmetrySpectrum:
    """An immutable spectrum: `a`, `stat_err` and the breakdown are
    read-only copies, so the errors derived from them are computed once."""

    binning: Binning
    a: np.ndarray
    stat_err: np.ndarray
    syst_breakdown: Mapping = field(default_factory=dict)  # source -> per-bin array

    def __post_init__(self):
        set_field = partial(object.__setattr__, self)
        set_field("a", _read_only(self.a))
        set_field("stat_err", _read_only(self.stat_err))
        set_field("syst_breakdown", MappingProxyType(
            {src: _read_only(v) for src, v in self.syst_breakdown.items()}))

    @cached_property
    def syst_err(self) -> np.ndarray:
        if not self.syst_breakdown:
            return _read_only(np.zeros(self.binning.n_bins))
        stacked = np.vstack(list(self.syst_breakdown.values()))
        with np.errstate(over="ignore"):    # inf, which chi2 rejects
            return _read_only(np.sqrt((stacked ** 2).sum(axis=0)))

    @cached_property
    def total_err(self) -> np.ndarray:
        with np.errstate(over="ignore"):
            return _read_only(np.sqrt(self.stat_err ** 2 + self.syst_err ** 2))

    @cached_property
    def errors_valid(self) -> bool:
        """Whether every total error is positive and finite, as a chi-square
        needs."""
        return bool(np.all(np.isfinite(self.total_err) & (self.total_err > 0)))

    def with_syst(self, source: str, values) -> "AsymmetrySpectrum":
        return AsymmetrySpectrum(self.binning, self.a, self.stat_err,
                                 {**self.syst_breakdown, source: values})


def bin_events(dt, cls, binning: Binning) -> BinnedCounts:
    """OF/SF histograms of events given as dt and class-code columns, binned
    as `np.histogram` bins them; the events it leaves out of the bins (below,
    above, NaN) count as overflow."""
    return _bin_index(binning.index(dt), cls, binning)


def _bin_index(index, cls, binning: Binning) -> BinnedCounts:
    """`bin_events` of events whose dt are given as their `Binning.index`."""
    n = binning.n_bins + 2
    h = np.bincount((cls != CLS_OF) * n + index,
                    minlength=2 * n).reshape(2, n)
    return BinnedCounts(binning, h[:, 1:-1],
                        overflow=tuple((h[:, 0] + h[:, -1]).tolist()))


def expected_background_counts(b: BackgroundConfig, binning: Binning):
    """Per-bin expected background counts and their yield variances, each
    of shape (2, n_bins) with the OF row first."""
    exp = np.zeros((2, binning.n_bins))
    var = np.zeros((2, binning.n_bins))
    for y in b.yields.values():
        frac = y.shape.bin_fractions(binning.array)
        exp += np.outer((y.n_of, y.n_sf), frac)
        var += np.outer((y.n_of_err, y.n_sf_err), frac) ** 2
    return exp, var


def subtract_background(c: BinnedCounts, b: BackgroundConfig):
    """Remove expected background per bin.

    Returns the subtracted counts (variances inflated by the yield errors)
    and the per-bin systematic on the asymmetry from those yield errors.
    """
    return _subtract_expected(c, *expected_background_counts(b, c.binning))


def _subtract_expected(c: BinnedCounts, exp, var):
    """`subtract_background` given the `expected_background_counts` of the
    backgrounds in c's binning."""
    out = BinnedCounts(c.binning, c.n - exp, c.var + var, c.overflow)
    # effect of 1-sigma yield shifts on the asymmetry, combined in
    # quadrature: |d a / d n_of| = 2 n_sf / tot^2 and |d a / d n_sf| =
    # 2 n_of / tot^2
    tot = out.n.sum(axis=0)
    safe = np.where(tot == 0, 1.0, tot)
    return out, np.hypot(*(2.0 * out.n[::-1] / safe ** 2 * np.sqrt(var)))


def asymmetry(c: BinnedCounts) -> AsymmetrySpectrum:
    """(OF - SF) / (OF + SF) per bin with propagated statistical errors.

    For raw Poisson counts the error reduces to the binomial formula
    2 sqrt(n_of n_sf / n^3). A bin with a class empty or subtracted below
    zero, where that is spuriously zero, gets the binomial width
    2 sqrt(p (1 - p) / n) of n = max(round(n_of + n_sf), 1) trials at
    p = n_of / (n_of + n_sf) clipped to [1/(n+2), 1 - 1/(n+2)] by the rule
    of succession. A degenerate bin, whose total is <= 0
    (`BinnedCounts.degenerate_bins`), holds no asymmetry: it is n = 1 trial
    at p = 1/2, so a = 0 +- 1.
    """
    n_of, n_sf = c.n
    degenerate = n_of + n_sf <= 0
    tot = np.where(degenerate, 1.0, n_of + n_sf)
    a = (n_of - n_sf) / tot
    a[degenerate] = 0.0
    # linear propagation of var(n_of), var(n_sf) through the ratio
    err = 2.0 / tot ** 2 * np.sqrt((c.n[::-1] ** 2 * c.var).sum(axis=0))
    n = np.maximum(np.round(tot), 1.0)
    p = np.clip(n_of / tot, 1.0 / (n + 2.0), 1.0 - 1.0 / (n + 2.0))
    p[degenerate] = 0.5
    err = np.where((c.n <= 0).any(axis=0), 2.0 * np.sqrt(p * (1.0 - p) / n),
                   err)
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
    n = ((1.0 - w) * c.n - w * c.n[::-1]) / d
    var = ((1.0 - w) ** 2 * c.var + w ** 2 * c.var[::-1]) / d ** 2
    return BinnedCounts(c.binning, n, var, c.overflow)


def mistag_systematic(spectrum: AsymmetrySpectrum, w: float,
                      w_err: float = WRONG_TAG_ERROR) -> np.ndarray:
    """Per-bin shift of a mistag-corrected asymmetry under w -> w +/- w_err,
    with the shifted fractions clamped to [0, 0.499999]."""
    a_obs = spectrum.a * _dilution(w)
    up = a_obs / (1.0 - 2.0 * min(w + w_err, 0.499999))
    dn = a_obs / (1.0 - 2.0 * max(w - w_err, 0.0))
    return np.maximum(np.abs(up - spectrum.a), np.abs(dn - spectrum.a))


_BINS = [("bin", "i4"), ("lo_ps", "f8"), ("hi_ps", "f8")]
_SPECTRUM = np.dtype(_BINS + [(n, "f8") for n in ("a", "stat", "syst_total")])
_COUNTS = np.dtype(_BINS + [(n, "f8") for n in ("n_of", "var_of", "n_sf",
                                                "var_sf")])


def _write_bins(path, binning: Binning, dtype, columns) -> None:
    """One row per bin: its number, its window, then `columns`."""
    e = binning.array
    write_table(path, np.rec.fromarrays(
        [np.arange(1, len(e)), e[:-1], e[1:], *columns], dtype=dtype))


def _edges(rows, path) -> tuple:
    """Bin edges from bins numbered 1..n that are contiguous."""
    if np.any(rows["bin"] != np.arange(1, len(rows) + 1)):
        raise ValueError(f"{path}: bins are not numbered 1..n")
    if np.any(rows["hi_ps"][:-1] != rows["lo_ps"][1:]):
        raise ValueError(f"{path}: bins are not contiguous")
    return tuple(np.append(rows["lo_ps"], rows["hi_ps"][-1]))


def write_spectrum(s: AsymmetrySpectrum, path) -> None:
    sources = sorted(s.syst_breakdown)
    _write_bins(path, s.binning,
                _SPECTRUM.descr + [(k, "f8") for k in sources],
                [s.a, s.stat_err, s.syst_err] + [s.syst_breakdown[k]
                                                 for k in sources])


def read_spectrum(path) -> AsymmetrySpectrum:
    _, rows = read_table(path, _SPECTRUM, extra=True)
    breakdown = {k: rows[k] for k in rows.dtype.names[len(_SPECTRUM):]}
    if not breakdown and rows["syst_total"].any():
        breakdown = {"total": rows["syst_total"]}
    return AsymmetrySpectrum(Binning(_edges(rows, path)), rows["a"],
                             rows["stat"], breakdown)


def write_counts(c: BinnedCounts, path) -> None:
    _write_bins(path, c.binning, _COUNTS,
                [c.n[0], c.var[0], c.n[1], c.var[1]])


def read_counts(path) -> BinnedCounts:
    """Counts from a file written by `write_counts`."""
    _, rows = read_table(path, _COUNTS)
    n, var = ([rows[k + "_of"], rows[k + "_sf"]] for k in ("n", "var"))
    binning = Binning(_edges(rows, path))
    try:
        return BinnedCounts(binning, n, var)
    except ValueError as e:     # a negative variance
        raise ValueError(f"{path}: {e}") from None
