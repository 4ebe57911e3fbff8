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


def build_response(dt_true, dt_rec, cls, binning: Binning):
    """(OF, SF) migration matrices from MC columns: true and reconstructed
    dt and the class code (an index into CLASS_NAMES) that selects the
    matrix.

    Binned as `np.histogram` bins the truth totals and `np.histogram2d` the
    migrations: the last bin includes its upper edge, except that an event
    with dt_true on that edge counts in the totals only.
    """
    edges = binning.array
    nb = binning.n_bins
    # bin k + 1 is [edges[k], edges[k + 1]); 0 and nb + 1 are out of range
    t = np.searchsorted(edges, dt_true, side="right")
    r = np.searchsorted(edges, dt_rec, side="right")
    r[dt_rec == edges[-1]] = nb
    h = np.bincount(np.ravel_multi_index((cls, r, t), (2, nb + 2, nb + 2)),
                    minlength=2 * (nb + 2) ** 2).reshape(2, nb + 2, nb + 2)
    totals = h.sum(axis=1)[:, 1:-1]
    totals[:, -1] += np.bincount(cls[dt_true == edges[-1]], minlength=2)
    return tuple(ResponseMatrix(binning, h[c, 1:-1, 1:-1].astype(float),
                                totals[c].astype(float), cls=label)
                 for c, label in enumerate(CLASS_NAMES))


def mix_responses(r_of: ResponseMatrix, r_sf: ResponseMatrix,
                  cfg: UnfoldConfig):
    """Responses trained on the mixed samples of `dsvd_unfold`: OF + s*SF and
    SF + o*OF."""
    of_m = ResponseMatrix(
        r_of.binning, r_of.m + cfg.mix_s * r_sf.m,
        r_of.truth_totals + cfg.mix_s * r_sf.truth_totals, cls="OF")
    sf_m = ResponseMatrix(
        r_sf.binning, r_sf.m + cfg.mix_o * r_of.m,
        r_sf.truth_totals + cfg.mix_o * r_of.truth_totals, cls="SF")
    return of_m, sf_m


def truncated_solver(resp: ResponseMatrix, rank: int):
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
    xa = resp.apriori
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
    """Unfold an OF/SF pair of measured spectra through one linear map.

    On the stacked (OF, SF) counts y the estimator is
    L = M^-1 diag(K_of, K_sf) M, with M = [[I, s I], [o I, I]] the class
    mixing and K the rank-truncated solvers of the mixed responses. Returns
    the truth estimate x = L y as BinnedCounts and its 2nb x 2nb covariance
    L diag(var) L^T, the OF/SF cross term included.
    """
    nb = measured.binning.n_bins
    eye = np.eye(nb)
    mix = np.block([[eye, cfg.mix_s * eye], [cfg.mix_o * eye, eye]])
    r_of_m, r_sf_m = mix_responses(resp_of, resp_sf, cfg)
    solve = np.zeros((2 * nb, 2 * nb))
    solve[:nb, :nb] = truncated_solver(r_of_m, cfg.rank_of)
    solve[nb:, nb:] = truncated_solver(r_sf_m, cfg.rank_sf)
    lin = np.linalg.inv(mix) @ solve @ mix
    x = lin @ np.concatenate([measured.n_of, measured.n_sf])
    cov = lin * np.concatenate([measured.var_of, measured.var_sf]) @ lin.T
    var = np.diag(cov)
    return BinnedCounts(measured.binning, x[:nb], x[nb:],
                        var_of=var[:nb], var_sf=var[nb:]), cov


def unfolded_asymmetry(x: BinnedCounts, cov, debias: bool = True):
    """Asymmetry of unfolded counts with the full propagated covariance.

    `cov` is the covariance of the stacked (OF, SF) counts. With `debias`
    the second-order expectation bias of the ratio, evaluated from it, is
    subtracted from the central values.
    """
    nb = len(x.n_of)
    tot = x.n_of + x.n_sf
    a = (x.n_of - x.n_sf) / tot
    if debias:
        var = np.diag(cov)
        a = a - (2.0 / tot ** 3) * (-x.n_sf * var[:nb]
                                    + (x.n_of - x.n_sf) * np.diag(cov, nb)
                                    + x.n_of * var[nb:])
    # d a / d n_of = 2 n_sf / tot^2 ; d a / d n_sf = -2 n_of / tot^2
    g = np.hstack([np.diag(2.0 * x.n_sf / tot ** 2),
                   np.diag(-2.0 * x.n_of / tot ** 2)])
    return a, g @ cov @ g.T


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
