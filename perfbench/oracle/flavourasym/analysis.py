"""Binned asymmetry estimation: histogramming, background subtraction,
mistag correction, and error propagation."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .toygen import BackgroundConfig, EventCategory

__all__ = [
    "DEFAULT_EDGES",
    "Binning",
    "BinnedCounts",
    "AsymmetrySpectrum",
    "bin_events",
    "expected_background_counts",
    "subtract_background",
    "asymmetry",
    "correct_mistag",
    "write_spectrum",
    "read_spectrum",
]

DEFAULT_EDGES = (0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 9.0, 13.0, 20.0)


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
        return np.sqrt((stacked ** 2).sum(axis=0))

    @property
    def total_err(self) -> np.ndarray:
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
    is_of = cls == "OF"
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


def asymmetry(c: BinnedCounts, bootstrap_rng: np.random.Generator | None = None,
              n_bootstrap: int = 10000) -> AsymmetrySpectrum:
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
        rng = bootstrap_rng or np.random.default_rng(20060207)
        for i in np.flatnonzero(degenerate):
            n = max(int(round(tot[i])), 1)
            # rule-of-succession clip keeps the bootstrap spread non-zero
            # when one class is empty or was subtracted below zero
            p_lo = 1.0 / (n + 2.0)
            p_of = min(max(c.n_of[i] / tot[i], p_lo), 1.0 - p_lo)
            draws = rng.binomial(n, p_of, size=n_bootstrap)
            err[i] = np.std(2.0 * draws / n - 1.0)
    return AsymmetrySpectrum(c.binning, a, err)


def correct_mistag(a_obs: AsymmetrySpectrum, w: float,
                   w_err: float = 0.0) -> AsymmetrySpectrum:
    """Undo the (1 - 2w) dilution from wrong flavour assignments."""
    if not 0.0 <= w < 0.5:
        raise ValueError("mistag fraction must lie in [0, 0.5)")
    scale = 1.0 / (1.0 - 2.0 * w)
    out = AsymmetrySpectrum(a_obs.binning, a_obs.a * scale,
                            a_obs.stat_err * scale,
                            dict(a_obs.syst_breakdown))
    if w_err > 0:
        up = a_obs.a / (1.0 - 2.0 * min(w + w_err, 0.499999))
        dn = a_obs.a / (1.0 - 2.0 * max(w - w_err, 0.0))
        syst = np.maximum(np.abs(up - out.a), np.abs(dn - out.a))
        out = out.with_syst("wrong_tags", syst)
    return out


_SPECTRUM_HEADER = ["bin", "lo_ps", "hi_ps", "a", "stat"]


def write_spectrum(s: AsymmetrySpectrum, path) -> None:
    """Table-layout delimited text: bin, window, a, stat, syst_total, sources."""
    sources = sorted(s.syst_breakdown)
    syst = s.syst_err
    edges = s.binning.array
    with open(path, "w") as f:
        f.write(",".join(_SPECTRUM_HEADER + ["syst_total"] + sources) + "\n")
        for i in range(s.binning.n_bins):
            row = [str(i + 1), "%.9g" % edges[i], "%.9g" % edges[i + 1],
                   "%.9g" % s.a[i], "%.9g" % s.stat_err[i], "%.9g" % syst[i]]
            row += ["%.9g" % s.syst_breakdown[src][i] for src in sources]
            f.write(",".join(row) + "\n")


def read_spectrum(path) -> AsymmetrySpectrum:
    with open(path) as f:
        header = f.readline().strip().split(",")
        if header[:6] != _SPECTRUM_HEADER + ["syst_total"]:
            raise ValueError(f"unexpected spectrum header in {path}")
        sources = header[6:]
        rows = [line.strip().split(",") for line in f if line.strip()]
    lo = np.array([float(r[1]) for r in rows])
    hi = np.array([float(r[2]) for r in rows])
    edges = tuple(np.append(lo, hi[-1]))
    a = np.array([float(r[3]) for r in rows])
    stat = np.array([float(r[4]) for r in rows])
    syst_total = np.array([float(r[5]) for r in rows])
    if sources:
        breakdown = {src: np.array([float(r[6 + j]) for r in rows])
                     for j, src in enumerate(sources)}
    else:
        breakdown = {"total": syst_total} if syst_total.any() else {}
    return AsymmetrySpectrum(Binning(edges), a, stat, breakdown)
