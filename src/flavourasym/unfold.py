"""SVD-regularized deconvolution of binned OF/SF spectra.

The response is efficiency-normalized per truth bin; the unknowns are
expressed as ratios to an a-priori spectrum taken from the training sample,
and regularization is rank truncation of the resulting linear system.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from ._table import finite, read_table, write_table
from .analysis import BinnedCounts, Binning
from .toygen import CLASS_NAMES

__all__ = [
    "ResponseMatrix",
    "UnfoldConfig",
    "response_histogram",
    "response_pair",
    "mix_responses",
    "unfolding_map",
    "dsvd_unfold",
    "bias_correct",
    "write_response",
    "recorded_edges",
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
        if self.truth_totals.shape != (nb,):
            raise ValueError(f"truth totals of shape {self.truth_totals.shape}"
                             f" do not match the {nb} bins")
        if np.any(self.m < 0):
            raise ValueError("response entries must be non-negative")
        if np.any(self.m.sum(axis=0) > self.truth_totals + 1e-9):
            raise ValueError("column sums exceed generated totals (efficiency > 1)")

    @property
    def efficiency_normalized(self) -> np.ndarray:
        """m[r, g] / N_generated(g); maps truth counts to expected reco counts."""
        safe = np.where(self.truth_totals > 0, self.truth_totals, 1.0)
        return self.m / safe


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


def response_histogram(dt_true, dt_rec, cls, binning: Binning) -> np.ndarray:
    """Integer training counts h[class, reco, truth] of a block of MC
    columns: true and reconstructed dt and the class code (an index into
    CLASS_NAMES). Index k + 1 on each axis is bin k; 0 and n_bins + 1 are
    out of range. Blocks add up: `response_pair` turns the sum into the
    (OF, SF) matrices.

    Binned as `np.histogram` bins the truth totals and `np.histogram2d` the
    migrations: the last bin includes its upper edge, except that an event
    with dt_true on that edge counts in the totals only. Such an event goes
    to the last truth bin at reco index 0, a row the migrations leave out.

    `dt_rec` may have leading axes, such as one row per detector, over the
    one dt_true and cls; the counts then have those axes too, and the
    truth index is formed once for all of them.
    """
    n = binning.n_bins + 2
    truth = binning.index(dt_true)
    reco = binning.index(dt_rec)
    reco[..., dt_true == binning.array[-1]] = 0
    lead = reco.shape[:-1]
    counts = []
    for row in reco.reshape(math.prod(lead), -1):
        # the flat (class, reco, truth) index, formed in intp, in place
        flat = cls.astype(np.intp)
        flat *= n
        flat += row
        flat *= n
        flat += truth
        counts.append(np.bincount(flat, minlength=2 * n * n))
    return np.reshape(counts, lead + (2, n, n))


def response_pair(h: np.ndarray, binning: Binning):
    """(OF, SF) migration matrices from the counts of `response_histogram`:
    the in-range (reco, truth) cells and, per truth bin, every event of
    that truth bin."""
    totals = h.sum(axis=1)[:, 1:-1]
    return tuple(ResponseMatrix(binning, h[c, 1:-1, 1:-1].astype(float),
                                totals[c].astype(float), cls=label)
                 for c, label in enumerate(CLASS_NAMES))


def mix_responses(r_of: ResponseMatrix, r_sf: ResponseMatrix,
                  cfg: UnfoldConfig):
    """Responses trained on the mixed samples of `unfolding_map`: OF + s*SF and
    SF + o*OF."""
    pair = (r_of, r_sf)
    return tuple(ResponseMatrix(r.binning, r.m + f * other.m,
                                r.truth_totals + f * other.truth_totals,
                                cls=label)
                 for label, r, other, f in zip(CLASS_NAMES, pair, pair[::-1],
                                               (cfg.mix_s, cfg.mix_o)))


def truncated_solver(resp: ResponseMatrix, rank: int):
    """Linear map from a measured vector to the truth estimate.

    The unknowns are ratios w to the a-priori spectrum xa, the truth totals
    of the training sample, and the truncation acts on the deviation from
    the a-priori after matching its normalization to the data: with
    A = R_eff diag(xa), row weights 1/sigma_i from the training statistics
    of reco bin i, and c = sum(y)/sum(A 1),

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
    xa = resp.truth_totals
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


def unfolding_map(resp_of: ResponseMatrix, resp_sf: ResponseMatrix,
                  cfg: UnfoldConfig) -> np.ndarray:
    """The 2nb x 2nb linear map that unfolds stacked (OF, SF) counts.

    L = M^-1 diag(K_of, K_sf) M, with M = [[I, s I], [o I, I]] the class
    mixing and K the rank-truncated solvers of the mixed responses. It
    depends on the response pair and `cfg` only: build it once and apply
    it to every spectrum with `dsvd_unfold`.
    """
    nb = resp_of.binning.n_bins
    eye = np.eye(nb)
    mix = np.block([[eye, cfg.mix_s * eye], [cfg.mix_o * eye, eye]])
    r_of_m, r_sf_m = mix_responses(resp_of, resp_sf, cfg)
    solve = np.zeros((2 * nb, 2 * nb))
    solve[:nb, :nb] = truncated_solver(r_of_m, cfg.rank_of)
    solve[nb:, nb:] = truncated_solver(r_sf_m, cfg.rank_sf)
    return np.linalg.inv(mix) @ solve @ mix


def dsvd_unfold(measured: BinnedCounts, lin: np.ndarray):
    """Unfold OF/SF pairs of measured spectra, one or a stack, through the
    map `lin` of `unfolding_map`.

    Returns x = L y of the stacked (OF, SF) counts y as BinnedCounts, with
    the variances diag(L diag(v) L^T), and the OF/SF cross term of each
    bin. Each product-sum is over the last axis, so a stack's rows are
    those of each spectrum alone, bit for bit.
    """
    shape = measured.n.shape
    nb = shape[-1]
    y, v = (c.reshape(shape[:-2] + (1, 2 * nb))
            for c in (measured.n, measured.var))
    lv = v * lin
    x = (y * lin).sum(-1).reshape(shape)
    var = (lv * lin).sum(-1).reshape(shape)
    cross = (lv[..., :nb, :] * lin[nb:]).sum(-1)
    return BinnedCounts(measured.binning, x, var), cross


def unfolded_asymmetry(x: BinnedCounts, cross):
    """(a, err) of unfolded counts from their variances and OF/SF cross
    term (`dsvd_unfold`). The second-order expectation bias of the ratio
    is subtracted from the central values."""
    (n_of, n_sf), (v_of, v_sf) = (np.moveaxis(c, -2, 0)
                                  for c in (x.n, x.var))
    tot = n_of + n_sf
    a = (n_of - n_sf) / tot - (2.0 / tot ** 3) * (
        -n_sf * v_of + (n_of - n_sf) * cross + n_of * v_sf)
    # d a / d n_of = 2 n_sf / tot^2 ; d a / d n_sf = -2 n_of / tot^2
    g_of, g_sf = 2.0 * n_sf / tot ** 2, -2.0 * n_of / tot ** 2
    return a, np.sqrt(g_of ** 2 * v_of + 2.0 * g_of * g_sf * cross
                      + g_sf ** 2 * v_sf)


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


def recorded_edges(binning: Binning) -> str:
    """The edges as a response file records them, at the %.9g of a counts
    file, so that edges a counts file tells apart differ here too."""
    return ",".join("%.9g" % e for e in binning.array)


def _digest(edges: np.ndarray) -> str:
    """The `binning=` digest of a response file: of the edges as recorded,
    so that a response read back keeps it."""
    return hashlib.sha256(edges.tobytes()).hexdigest()[:12]


def write_response(resp: ResponseMatrix, path) -> None:
    edges = recorded_edges(resp.binning)
    preamble = [f"# class={resp.cls} "
                f"binning={_digest(np.array(edges.split(','), float))} "
                f"edges={edges}",
                "# truth_totals=" + ",".join("%.9g" % t
                                             for t in resp.truth_totals)]
    write_table(path, resp.m, header=False, preamble=preamble)


def read_response(path) -> ResponseMatrix:
    (head, totals), m = read_table(path, float, header=False, preamble=2)
    if not (head.startswith("# class=") and " binning=" in head
            and " edges=" in head and totals.startswith("# truth_totals=")):
        raise ValueError(f"not a response file: {path}")
    cls = head.split("class=")[1].split()[0]
    if cls not in ("OF", "SF"):
        raise ValueError(f"{path}: unknown response class {cls!r}")
    recorded = head.split("edges=")[1]
    edges = finite(recorded.split(","), f"{path}: edges")
    if head.split("binning=")[1].split()[0] != _digest(edges):
        raise ValueError(f"{path}: the binning digest does not match the "
                         f"recorded edges {recorded}")
    totals = finite(totals.split("truth_totals=")[1].split(","),
                    f"{path}: truth_totals")
    try:
        return ResponseMatrix(Binning(tuple(edges)), m, totals, cls=cls)
    except ValueError as e:   # the edges, a shape or the counts
        raise ValueError(f"{path}: {e}") from None
