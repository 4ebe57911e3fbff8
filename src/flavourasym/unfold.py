"""SVD-regularized deconvolution of binned OF/SF spectra.

The response is efficiency-normalized per truth bin; the unknowns are
expressed as ratios to an a-priori spectrum taken from the training sample,
and regularization is rank truncation of the resulting linear system.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from ._table import finite, read_table, write_table
from .analysis import BinnedCounts, Binning
from .toygen import CLASS_NAMES

__all__ = [
    "ResponseMatrix",
    "UnfoldConfig",
    "build_response",
    "mix_counts",
    "demix_counts",
    "mix_responses",
    "dsvd_unfold",
    "bias_correct",
    "write_response",
    "read_response",
]


@dataclass
class ResponseMatrix:
    """Migration counts m[reco, truth] plus per-truth-bin generated totals."""

    binning: Binning
    m: np.ndarray
    truth_totals: np.ndarray
    cls: str = "OF"

    def __post_init__(self):
        nb = self.binning.n_bins
        self.m = np.asarray(self.m, dtype=float)
        self.truth_totals = np.asarray(self.truth_totals, dtype=float)
        if self.m.shape != (nb, nb):
            raise ValueError(f"response must be {nb}x{nb}, got {self.m.shape}")
        if np.any(self.m < 0):
            raise ValueError("response entries must be non-negative")
        if np.any(self.m.sum(axis=0) > self.truth_totals + 1e-9):
            raise ValueError("column sums exceed generated totals (efficiency > 1)")

    @property
    def efficiency_normalized(self) -> np.ndarray:
        """m[r, g] / N_generated(g); maps truth counts to expected reco counts."""
        safe = np.where(self.truth_totals > 0, self.truth_totals, 1.0)
        return self.m / safe

    @property
    def apriori(self) -> np.ndarray:
        """Truth-level spectrum of the training sample."""
        return self.truth_totals.copy()


@dataclass(frozen=True)
class UnfoldConfig:
    rank_of: int = 5
    rank_sf: int = 6
    mix_s: float = 0.2
    mix_o: float = 0.2

    def __post_init__(self):
        if not (1 <= self.rank_of and 1 <= self.rank_sf):
            raise ValueError("ranks must be at least 1")
        if not (0.0 <= self.mix_s <= 1.0 and 0.0 <= self.mix_o <= 1.0):
            raise ValueError("mix fractions must lie in [0, 1]")
        if self.mix_s * self.mix_o >= 1.0:
            raise ValueError("mix_s * mix_o must be below 1 for de-mixing")


def build_response(events: np.ndarray, binning: Binning,
                   which_cls: str = "assigned"):
    """(OF, SF) migration matrices from MC events carrying truth and reco dt."""
    edges = binning.array
    nb = binning.n_bins
    out = {}
    cls_field = events["cls_true" if which_cls == "true" else "cls_assigned"]
    for code, label in enumerate(CLASS_NAMES):
        sel = cls_field == code
        dt_true = events["dt_true_ps"][sel]
        dt_rec = events["dt_rec_ps"][sel]
        totals, _ = np.histogram(dt_true, bins=edges)
        in_t = (dt_true >= edges[0]) & (dt_true < edges[-1])
        m, _, _ = np.histogram2d(dt_rec[in_t], dt_true[in_t],
                                 bins=(edges, edges))
        out[label] = ResponseMatrix(binning, m, totals.astype(float), cls=label)
    return out["OF"], out["SF"]


def mix_counts(of: np.ndarray, sf: np.ndarray, cfg: UnfoldConfig):
    """of + s*sf and sf + o*of; populates bins that one class leaves empty."""
    of = np.asarray(of, dtype=float)
    sf = np.asarray(sf, dtype=float)
    return of + cfg.mix_s * sf, sf + cfg.mix_o * of


def demix_counts(of_mixed: np.ndarray, sf_mixed: np.ndarray, cfg: UnfoldConfig):
    """Exact linear inverse of mix_counts."""
    det = 1.0 - cfg.mix_s * cfg.mix_o
    if det == 0:
        raise ValueError("singular de-mixing: mix_s * mix_o = 1")
    of = (of_mixed - cfg.mix_s * sf_mixed) / det
    sf = (sf_mixed - cfg.mix_o * of_mixed) / det
    return of, sf


def demix_jacobian(nb: int, cfg: UnfoldConfig) -> np.ndarray:
    """Matrix sending (of_mixed, sf_mixed) to (of, sf), stacked vectors."""
    det = 1.0 - cfg.mix_s * cfg.mix_o
    eye = np.eye(nb)
    top = np.hstack([eye, -cfg.mix_s * eye]) / det
    bot = np.hstack([-cfg.mix_o * eye, eye]) / det
    return np.vstack([top, bot])


def mix_responses(r_of: ResponseMatrix, r_sf: ResponseMatrix,
                  cfg: UnfoldConfig):
    """Responses trained on the mixed samples, consistent with mix_counts."""
    of_m = ResponseMatrix(
        r_of.binning, r_of.m + cfg.mix_s * r_sf.m,
        r_of.truth_totals + cfg.mix_s * r_sf.truth_totals, cls="OF")
    sf_m = ResponseMatrix(
        r_sf.binning, r_sf.m + cfg.mix_o * r_of.m,
        r_sf.truth_totals + cfg.mix_o * r_of.truth_totals, cls="SF")
    return of_m, sf_m


def truncated_solver(resp: ResponseMatrix, rank: int, apriori=None):
    """Linear map from a measured vector to the truth estimate.

    The unknowns are ratios w to the a-priori spectrum xa, and the truncation
    acts on the deviation from the a-priori after matching its normalization
    to the data: with A = R_eff diag(xa), row weights 1/sigma_i from the
    training statistics of reco bin i, and c = sum(y)/sum(A 1),

        x = c xa + diag(xa) pinv_rank(W A) W (y - c A 1).

    Because c is linear in y the whole estimate is linear in y; the returned
    nb x nb matrix implements it exactly, so covariance propagation through
    it is exact. When the measured vector is a scaled image of the a-priori
    the estimate equals the scaled a-priori at any rank, which keeps the
    regularization bias proportional to the shape difference only. At full
    rank the map reduces to the plain matrix inverse.
    """
    nb = resp.binning.n_bins
    if rank > nb:
        raise ValueError(f"rank {rank} exceeds the number of bins {nb}")
    xa = resp.apriori if apriori is None else np.asarray(apriori, dtype=float)
    if np.any(xa <= 0):
        raise ValueError("a-priori spectrum must be positive in every bin")
    a = resp.efficiency_normalized @ np.diag(xa)
    # fixed row weights from the training migration statistics; these are
    # data-independent, so the solver stays a fixed linear map
    w = 1.0 / np.sqrt(np.maximum(resp.m.sum(axis=1), 1.0))
    u, s, vt = np.linalg.svd(a * w[:, None])
    if s[rank - 1] < 1e-12:
        raise ArithmeticError(
            f"singular value {s[rank - 1]:.3e} below 1e-12 at rank {rank}")
    pinv = (vt[:rank].T / s[:rank]) @ u[:, :rank].T
    m = np.diag(xa) @ pinv @ np.diag(w)
    folded = resp.efficiency_normalized @ xa
    return m + np.outer(xa - m @ folded, np.ones(nb)) / folded.sum()


def dsvd_unfold(measured: BinnedCounts, resp_of: ResponseMatrix,
                resp_sf: ResponseMatrix, cfg: UnfoldConfig):
    """Unfold an OF/SF pair of measured spectra.

    Mixes the measured vectors and the responses, truncates each SVD at the
    configured rank, de-mixes, and propagates the measured per-bin
    variances (and the OF/SF cross term induced by mixing) to the output.

    Returns (truth BinnedCounts, cov_of, cov_sf, cov_ofsf).
    """
    nb = measured.binning.n_bins
    of_m, sf_m = mix_counts(measured.n_of, measured.n_sf, cfg)
    r_of_m, r_sf_m = mix_responses(resp_of, resp_sf, cfg)
    k_of = truncated_solver(r_of_m, cfg.rank_of)
    k_sf = truncated_solver(r_sf_m, cfg.rank_sf)
    x_of_m = k_of @ of_m
    x_sf_m = k_sf @ sf_m

    c_of = np.diag(measured.var_of)
    c_sf = np.diag(measured.var_sf)
    # covariance of the mixed measured vectors; OF and SF are independent
    s, o = cfg.mix_s, cfg.mix_o
    c_ofm = c_of + s * s * c_sf
    c_sfm = c_sf + o * o * c_of
    c_cross_m = o * c_of + s * c_sf

    cov_xofm = k_of @ c_ofm @ k_of.T
    cov_xsfm = k_sf @ c_sfm @ k_sf.T
    cov_xcross = k_of @ c_cross_m @ k_sf.T

    x_of, x_sf = demix_counts(x_of_m, x_sf_m, cfg)
    j = demix_jacobian(nb, cfg)
    big = np.block([[cov_xofm, cov_xcross], [cov_xcross.T, cov_xsfm]])
    big = j @ big @ j.T
    cov_uof = big[:nb, :nb]
    cov_usf = big[nb:, nb:]
    cov_uofsf = big[:nb, nb:]
    out = BinnedCounts(measured.binning, x_of, x_sf,
                       var_of=np.diag(cov_uof).copy(),
                       var_sf=np.diag(cov_usf).copy())
    return out, cov_uof, cov_usf, cov_uofsf


def unfolded_asymmetry(x: BinnedCounts, cov_of, cov_sf, cov_ofsf,
                       debias: bool = True):
    """Asymmetry of unfolded counts with the full propagated covariance.

    With `debias` the second-order expectation bias of the ratio, evaluated
    from the propagated covariance, is subtracted from the central values.
    """
    tot = x.n_of + x.n_sf
    a = (x.n_of - x.n_sf) / tot
    if debias:
        v_oo = np.diag(cov_of)
        v_ss = np.diag(cov_sf)
        v_os = np.diag(cov_ofsf)
        a = a - (2.0 / tot ** 3) * (-x.n_sf * v_oo
                                    + (x.n_of - x.n_sf) * v_os
                                    + x.n_of * v_ss)
    # d a / d n_of = 2 n_sf / tot^2 ; d a / d n_sf = -2 n_of / tot^2
    g_of = np.diag(2.0 * x.n_sf / tot ** 2)
    g_sf = np.diag(-2.0 * x.n_of / tot ** 2)
    cov = (g_of @ cov_of @ g_of.T + g_sf @ cov_sf @ g_sf.T
           + g_of @ cov_ofsf @ g_sf.T + g_sf @ cov_ofsf.T @ g_of.T)
    return a, cov


def bias_correct(unfolded_by_model: dict, truth_by_model: dict):
    """Model-averaged additive correction and the residual-bias systematic.

    unfolded_by_model: model tag -> array (replicas, bins) of unfolded
    asymmetries; truth_by_model: model tag -> truth asymmetry per bin.
    """
    models = sorted(unfolded_by_model)
    if len(models) < 3:
        raise ValueError("need ensembles for at least three models")
    biases = {m: unfolded_by_model[m].mean(axis=0) - truth_by_model[m]
              for m in models}
    correction = np.mean([biases[m] for m in models], axis=0)
    systematic = np.max(
        [np.abs(biases[m] - correction) for m in models], axis=0)
    return correction, systematic


def write_response(resp: ResponseMatrix, path) -> None:
    edges = resp.binning.array
    bh = hashlib.sha256(edges.tobytes()).hexdigest()[:12]
    preamble = [f"# class={resp.cls} binning={bh} "
                f"edges={','.join('%g' % e for e in edges)}",
                "# truth_totals=" + ",".join("%.9g" % t
                                             for t in resp.truth_totals)]
    write_table(path, list(resp.m.T), ["%.9g"] * resp.binning.n_bins,
                preamble=preamble)


def read_response(path) -> ResponseMatrix:
    t = read_table(path, preamble=2)
    head, totals = t.preamble
    if not (head.startswith("# class=") and " edges=" in head
            and totals.startswith("# truth_totals=")):
        raise ValueError(f"not a response file: {path}")
    cls = head.split("class=")[1].split()[0]
    if cls not in ("OF", "SF"):
        raise ValueError(f"{path}: unknown response class {cls!r}")
    edges = finite(head.split("edges=")[1].split(","), f"{path}: edges")
    totals = finite(totals.split("truth_totals=")[1].split(","),
                    f"{path}: truth_totals")
    m = np.column_stack([t.numbers(j) for j in range(len(t.columns))])
    return ResponseMatrix(Binning(tuple(edges)), m, totals, cls=cls)
