"""End-to-end chain: toy generation, binned analysis, unfolding, fits.

Everything here is deterministic given (config, seed); pseudo-experiment
ensembles spawn one child stream per replica.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .analysis import (AsymmetrySpectrum, BinnedCounts, Binning, asymmetry,
                       bin_events, subtract_background)
from .fitkit import BinPredictor, Constraint, fit_model, significance
from .models import MarginalGrid, ModelParams, asym_sd_marginal
from .toygen import (BackgroundConfig, DetectorConfig, GenModel,
                     generate_ensemble, make_signal_events, stream_rng)
from .unfold import (ResponseMatrix, UnfoldConfig, bias_correct,
                     build_response, dsvd_unfold, unfolded_asymmetry)

__all__ = [
    "PipelineConfig",
    "mistag_correct_counts",
    "corrected_counts",
    "analyze_counts",
    "truth_asymmetry",
    "build_training_responses",
    "run_replica",
    "run_ensemble",
    "ensemble_pulls",
    "model_comparison",
    "smear_systematic",
    "mistag_systematic",
]


@dataclass(frozen=True)
class PipelineConfig:
    params: ModelParams = field(default_factory=ModelParams)
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    backgrounds: BackgroundConfig = field(default_factory=BackgroundConfig)
    binning: Binning = field(default_factory=Binning)
    unfold: UnfoldConfig = field(default_factory=UnfoldConfig)
    constraint: Constraint = field(default_factory=Constraint)
    n_signal: int = 7815
    n_response_mc: int = 400000
    seed: int = 1

    @classmethod
    def paper_scale(cls, seed: int = 1, **over):
        p = ModelParams()
        return cls(params=p,
                   backgrounds=BackgroundConfig.paper_scale(tau=p.tau),
                   seed=seed, **over)


def mistag_correct_counts(c: BinnedCounts, w: float) -> BinnedCounts:
    """Invert the per-event flip probability at the count level.

    The corrected asymmetry equals the observed one divided by (1 - 2w);
    the OF+SF sum is preserved.
    """
    if not 0.0 <= w < 0.5:
        raise ValueError("mistag fraction must lie in [0, 0.5)")
    if w == 0.0:
        return c
    d = 1.0 - 2.0 * w
    n_of = ((1.0 - w) * c.n_of - w * c.n_sf) / d
    n_sf = ((1.0 - w) * c.n_sf - w * c.n_of) / d
    var_of = ((1.0 - w) ** 2 * c.var_of + w ** 2 * c.var_sf) / d ** 2
    var_sf = ((1.0 - w) ** 2 * c.var_sf + w ** 2 * c.var_of) / d ** 2
    return BinnedCounts(c.binning, n_of, n_sf, var_of=var_of, var_sf=var_sf,
                        overflow_of=c.overflow_of, overflow_sf=c.overflow_sf)


def corrected_counts(events: np.ndarray, cfg: PipelineConfig):
    """Binned, background-subtracted, mistag-corrected counts.

    Ordering follows the chain: subtraction first, then the tag correction.
    Returns the counts and the per-bin subtraction systematic on the
    asymmetry.
    """
    raw = bin_events(events, cfg.binning, which_dt="reconstructed",
                     which_cls="assigned")
    sub, bkg_syst = subtract_background(raw, cfg.backgrounds)
    corrected = mistag_correct_counts(sub, cfg.detector.mistag_fraction)
    return corrected, bkg_syst


def analyze_counts(events: np.ndarray, cfg: PipelineConfig):
    """Corrected counts plus the measured asymmetry spectrum with systematics."""
    corrected, bkg_syst = corrected_counts(events, cfg)
    spec = asymmetry(corrected)
    spec = spec.with_syst("background_subtraction", bkg_syst)
    w, werr = cfg.detector.mistag_fraction, 0.005
    if w > 0:
        a_obs = spec.a * (1.0 - 2.0 * w)
        up = a_obs / (1.0 - 2.0 * (w + werr))
        dn = a_obs / (1.0 - 2.0 * (w - werr))
        spec = spec.with_syst("wrong_tags",
                              np.maximum(np.abs(up - spec.a),
                                         np.abs(dn - spec.a)))
    return corrected, spec


def truth_asymmetry(model: GenModel, cfg: PipelineConfig) -> np.ndarray:
    """Rate-weighted truth-level binned asymmetry of a generation model."""
    p = cfg.params
    pred = BinPredictor(cfg.binning, tau=p.tau)
    if model is GenModel.QM:
        return pred.average(lambda t: np.cos(p.dm * t))
    if model is GenModel.SD:
        return pred.average(lambda t: asym_sd_marginal(t, p))
    if model is GenModel.DECOHERED:
        return pred.average(lambda t: (1 - p.zeta) * np.cos(p.dm * t)
                            + p.zeta * asym_sd_marginal(t, p))
    g = MarginalGrid(p)
    if model is GenModel.PS_BOUNDARY_MAX:
        return pred.average(g.ps_upper)
    if model is GenModel.PS_BOUNDARY_MIN:
        return pred.average(g.ps_lower)
    raise ValueError(f"unknown model {model}")


def build_training_responses(cfg: PipelineConfig, detector=None,
                             seed_offset: int = 900000):
    """OF/SF response matrices from a dedicated high-statistics QM sample.

    Truth flavour indexes the matrices: the measured counts are
    mistag-corrected before unfolding, so the response must not fold the
    tag flip back in.
    """
    det = detector or cfg.detector
    rng = stream_rng(cfg.seed, seed_offset)
    mc = make_signal_events(GenModel.QM, cfg.params, cfg.n_response_mc,
                            det, rng)
    return build_response(mc, cfg.binning, which_cls="true")


def run_replica(model: GenModel, cfg: PipelineConfig,
                resp_of: ResponseMatrix, resp_sf: ResponseMatrix,
                replica_seed: int):
    """One pseudo-experiment: generate, analyze, unfold, form the asymmetry."""
    events = generate_ensemble(model, cfg.params, cfg.detector,
                               cfg.backgrounds, cfg.n_signal,
                               master_seed=cfg.seed * 1000003 + replica_seed)
    counts, _ = corrected_counts(events, cfg)
    x, cov_of, cov_sf, cov_x = dsvd_unfold(counts, resp_of, resp_sf,
                                           cfg.unfold)
    a, cov_a = unfolded_asymmetry(x, cov_of, cov_sf, cov_x)
    return a, cov_a


def run_ensemble(models, n_replicas: int, cfg: PipelineConfig,
                 resp_of=None, resp_sf=None):
    """Pseudo-experiment ensembles for several models, with bias correction.

    Returns a dict with per-model unfolded asymmetries, per-replica errors,
    truth vectors, the model-averaged correction, and the residual-bias
    deconvolution systematic.
    """
    if resp_of is None or resp_sf is None:
        resp_of, resp_sf = build_training_responses(cfg)
    unfolded, errors, truths = {}, {}, {}
    for model in models:
        rows, errs = [], []
        for r in range(n_replicas):
            a, cov = run_replica(model, cfg, resp_of, resp_sf, r)
            rows.append(a)
            errs.append(np.sqrt(np.diag(cov)))
        unfolded[model.value] = np.array(rows)
        errors[model.value] = np.array(errs)
        truths[model.value] = truth_asymmetry(model, cfg)
    correction, syst = bias_correct(unfolded, truths)
    return {
        "unfolded": unfolded,
        "errors": errors,
        "truth": truths,
        "correction": correction,
        "deconvolution_systematic": syst,
        "responses": (resp_of, resp_sf),
    }


def ensemble_pulls(result: dict, model: GenModel,
                   include_systematic: bool = True):
    """Per-replica, per-bin pulls of the bias-corrected asymmetry.

    The denominator is the per-replica statistical error, combined in
    quadrature with the residual-bias deconvolution systematic unless
    `include_systematic` is disabled.
    """
    a = result["unfolded"][model.value] - result["correction"]
    err = result["errors"][model.value]
    if include_systematic:
        err = np.sqrt(err ** 2 + result["deconvolution_systematic"] ** 2)
    return (a - result["truth"][model.value]) / err


def smear_systematic(cfg: PipelineConfig, delta_um: float = 35.0,
                     n_replicas: int = 50):
    """Deconvolution systematic from varying the MC-tuning smear term.

    The extra smearing is moved to sqrt(s^2 +/- delta^2) in the response
    training only; the same toys are re-unfolded and the mean per-bin
    asymmetry shift is returned for each variant.
    """
    if delta_um == 0:
        return np.zeros(cfg.binning.n_bins)
    s = cfg.detector.extra_smear_sigma
    up = float(np.sqrt(s ** 2 + delta_um ** 2))
    dn = float(np.sqrt(max(s ** 2 - delta_um ** 2, 0.0)))
    nominal = build_training_responses(cfg)
    variants = [build_training_responses(
        cfg, detector=replace(cfg.detector, extra_smear_sigma=v))
        for v in (up, dn)]
    shifts = []
    for r_var in variants:
        diffs = []
        for r in range(n_replicas):
            a_nom, _ = run_replica(GenModel.QM, cfg, *nominal, r)
            a_var, _ = run_replica(GenModel.QM, cfg, *r_var, r)
            diffs.append(a_var - a_nom)
        shifts.append(np.abs(np.mean(diffs, axis=0)))
    return np.max(shifts, axis=0)


def mistag_systematic(spectrum: AsymmetrySpectrum, w: float,
                      w_err: float = 0.005) -> np.ndarray:
    """Per-bin shift of a mistag-corrected asymmetry under w -> w +/- w_err."""
    a_obs = spectrum.a * (1.0 - 2.0 * w)
    up = a_obs / (1.0 - 2.0 * (w + w_err))
    dn = a_obs / (1.0 - 2.0 * (w - w_err))
    return np.maximum(np.abs(up - spectrum.a), np.abs(dn - spectrum.a))


def model_comparison(spectrum: AsymmetrySpectrum, c: Constraint,
                     tau: float = 1.53):
    """QM/SD/PS fits of a spectrum plus the pairwise significance matrix."""
    pred = BinPredictor(spectrum.binning, tau=tau)
    fits = {m: fit_model(spectrum, m, c, pred) for m in ("QM", "SD", "PS")}
    sig = {(a, b): significance(fits[a], fits[b])
           for a in fits for b in fits if a != b}
    return fits, sig
